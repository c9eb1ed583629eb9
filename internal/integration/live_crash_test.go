package integration

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/bagio"
	"repro/internal/core"
	"repro/internal/faultfs"
)

// liveCrashTopics is the topic mix of the live crash sweep: a few
// streams round-robined so every crash point lands mid-stream for most
// of them.
var liveCrashTopics = []string{"/imu", "/tf", "/camera/rgb/image_color"}

// liveCrashRecord drives one live recording at the given index flush
// cadence through a fault-injecting backend: rounds of round-robin
// writes whose timestamps advance fast enough to rotate segments of the
// given window, then a seal. It returns the injector, every payload
// handed to the recorder per topic (including the write that observed
// the crash — it may or may not have reached the index), and the first
// error.
func liveCrashRecord(t *testing.T, root string, plan faultfs.Plan, every int, window time.Duration) (*faultfs.Injector, map[string][][]byte, error) {
	t.Helper()
	in := faultfs.NewInjector(faultfs.OS, plan)
	b, err := core.New(root, core.Options{FS: in, IndexFlushEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	attempted := map[string][][]byte{}
	rec, err := b.CreateLiveBag("live", window)
	if err != nil {
		return in, attempted, err
	}
	conns := make([]uint32, len(liveCrashTopics))
	for j, topic := range liveCrashTopics {
		id, err := rec.AddConnection(topic, "bora_test/Msg")
		if err != nil {
			return in, attempted, err
		}
		conns[j] = id
	}
	const rounds = 25
	for i := 0; i < rounds; i++ {
		for j, topic := range liveCrashTopics {
			payload := []byte(fmt.Sprintf("%s#%03d|", topic, i))
			for len(payload) < 64 {
				payload = append(payload, byte(5*i+11*j))
			}
			// 300ms per round: against a 1s window, a rotation roughly
			// every fourth round.
			ts := bagio.TimeFromNanos(int64(1e18) + int64(i)*300e6 + int64(j)*1000)
			attempted[topic] = append(attempted[topic], payload)
			if err := rec.WriteMessage(conns[j], ts, payload); err != nil {
				return in, attempted, err
			}
		}
	}
	return in, attempted, rec.Seal()
}

// queryPayloads collects a bag's full chronological stream.
func queryPayloads(t *testing.T, bag *core.Bag, spec core.QuerySpec) map[string][][]byte {
	t.Helper()
	out := map[string][][]byte{}
	if err := bag.Query(spec, func(m core.MessageRef) error {
		out[m.Conn.Topic] = append(out[m.Conn.Topic], append([]byte(nil), m.Data...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLiveCrashRecoverySweep extends the crash-consistency harness to
// the live recorder: the recording is crashed at every backend
// operation boundary, and after each crash the invariant of the live
// lifecycle must hold — the abandoned bag refuses to open, Repair
// converges it to a sealed bag, every recovered topic serves a
// byte-identical prefix of the payloads handed to the recorder (losing
// at most the unflushed tail, never altering or reordering), and a
// Follow query of the repaired bag delivers exactly the post-hoc
// chronological stream. It sweeps two cadences: one write per message
// over 1s segments, and eight messages buffered per write over 5s
// segments, which hold enough messages per topic to reach the cadence.
func TestLiveCrashRecoverySweep(t *testing.T) {
	t.Parallel()
	for _, row := range []struct {
		every  int
		window time.Duration
	}{{1, time.Second}, {8, 5 * time.Second}} {
		t.Run(fmt.Sprintf("IndexFlushEvery=%d", row.every), func(t *testing.T) {
			t.Parallel()
			liveCrashSweep(t, row.every, row.window)
		})
	}
}

func liveCrashSweep(t *testing.T, every int, window time.Duration) {
	clean, _, err := liveCrashRecord(t, t.TempDir(), faultfs.Plan{Seed: 1}, every, window)
	if err != nil {
		t.Fatalf("clean live recording: %v", err)
	}
	total := clean.Ops()
	if total < 100 {
		t.Fatalf("suspiciously few backend ops in a clean live recording: %d", total)
	}
	t.Logf("sweeping live crash points 1..%d", total)

	for n := int64(1); n <= total; n++ {
		root := t.TempDir()
		in, attempted, err := liveCrashRecord(t, root, faultfs.Plan{Seed: 7, CrashAt: n}, every, window)
		if err == nil {
			t.Fatalf("CrashAt=%d: recording succeeded", n)
		}
		if !in.Crashed() {
			t.Fatalf("CrashAt=%d: injector never crashed", n)
		}
		if _, err := os.Stat(filepath.Join(root, "live", core.LiveMetaFileName)); os.IsNotExist(err) {
			continue // crashed before the live meta landed: nothing on disk to recover
		}

		// Refused: an abandoned recording must not be served as-is.
		b2, err := core.New(root, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b2.Open("live"); err == nil {
			t.Fatalf("CrashAt=%d: crashed live bag opened without repair", n)
		}

		// Recoverable: Repair converges to a sealed, openable bag.
		if _, err := b2.Repair("live"); err != nil {
			t.Fatalf("CrashAt=%d: Repair: %v", n, err)
		}
		bag, err := b2.Open("live")
		if err != nil {
			t.Fatalf("CrashAt=%d: repaired live bag does not open: %v", n, err)
		}

		// Prefix property: each topic serves a byte-identical prefix of
		// what the recorder was handed — the write that observed the
		// crash may have reached the index or not, everything before it
		// must have, nothing may be altered or reordered.
		posthoc := queryPayloads(t, bag, core.QuerySpec{Order: core.OrderTime})
		for topic, got := range posthoc {
			want := attempted[topic]
			if len(got) > len(want) {
				t.Fatalf("CrashAt=%d: topic %s has %d messages, recorder was handed %d", n, topic, len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("CrashAt=%d: topic %s message %d differs from what was recorded", n, topic, i)
				}
			}
			if len(want)-len(got) > every {
				// IndexFlushEvery=N leaves at most the in-flight write
				// and the N-1 buffered before it unindexed.
				t.Fatalf("CrashAt=%d: topic %s lost %d messages, want at most %d", n, topic, len(want)-len(got), every)
			}
		}

		// Follow-vs-post-hoc equality: on the sealed repaired bag a
		// Follow query degenerates to the chronological snapshot and
		// must deliver byte-identical streams.
		followed := queryPayloads(t, bag, core.QuerySpec{Follow: true})
		if !reflect.DeepEqual(followed, posthoc) {
			t.Fatalf("CrashAt=%d: Follow stream diverges from post-hoc chronological query", n)
		}
	}
}
