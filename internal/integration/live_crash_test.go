package integration

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bagio"
	"repro/internal/container"
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
	if total < 50 {
		t.Fatalf("suspiciously few backend ops in a clean live recording: %d", total)
	}
	metaDurable := liveMetaSync(t, clean.Trace())
	t.Logf("sweeping live crash points 1..%d; the live meta is durable after op %d", total, metaDurable)

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
			if n > metaDurable {
				t.Fatalf("CrashAt=%d: the live meta is missing, though its directory was synced at op %d", n, metaDurable)
			}
			continue // crashed before the live meta was durable: nothing on disk to recover
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

// TestLiveCrashSweepDeterministic is TestCrashSweepDeterministic for
// the live recorder, whose rotations issue a segment's commit and
// finish it a rotation later: two runs of the same seeded plan issue
// the same back-end operations in the same order and leave identical
// fsck reports. It crashes at fixed fractions of a clean recording and
// at every issued barrier — the points a barrier run from a goroutine
// would move from run to run.
func TestLiveCrashSweepDeterministic(t *testing.T) {
	t.Parallel()
	const every, window = 1, time.Second
	clean, _, err := liveCrashRecord(t, t.TempDir(), faultfs.Plan{Seed: 1}, every, window)
	if err != nil {
		t.Fatal(err)
	}
	total := clean.Ops()
	points := []int64{0, 3, total / 4, total / 2, total - 1}
	for _, b := range barriers(clean.Trace()) {
		points = append(points, b.at)
	}
	for _, n := range points {
		rootA, rootB := t.TempDir(), t.TempDir()
		inA, _, errA := liveCrashRecord(t, rootA, faultfs.Plan{Seed: 42, CrashAt: n}, every, window)
		inB, _, errB := liveCrashRecord(t, rootB, faultfs.Plan{Seed: 42, CrashAt: n}, every, window)
		if (errA == nil) != (errB == nil) || (errA == nil) != (n == 0) {
			t.Fatalf("CrashAt=%d: outcomes %v and %v", n, errA, errB)
		}
		ta, tb := inA.Trace(), inB.Trace()
		for i := 0; i < len(ta) || i < len(tb); i++ {
			var a, b string
			if i < len(ta) {
				a = normalizePath(rootA, ta[i])
			}
			if i < len(tb) {
				b = normalizePath(rootB, tb[i])
			}
			if a != b {
				t.Fatalf("CrashAt=%d: op traces diverge at op %d of %d/%d:\n%q\n%q", n, i+1, len(ta), len(tb), a, b)
			}
		}
		if fa, fb := liveFindings(t, rootA), liveFindings(t, rootB); !reflect.DeepEqual(fa, fb) {
			t.Fatalf("CrashAt=%d: fsck reports diverge:\n%v\n%v", n, fa, fb)
		}
	}
}

// liveFindings is the fsck of the live bag under root, every segment's
// findings and the live meta's, with root normalized away.
func liveFindings(t *testing.T, root string) []container.Finding {
	t.Helper()
	if _, err := os.Stat(filepath.Join(root, "live", core.LiveMetaFileName)); os.IsNotExist(err) {
		return nil
	}
	b, err := core.New(root, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	segs, unsealed, err := b.Fsck("live")
	if err != nil {
		t.Fatal(err)
	}
	var out []container.Finding
	for _, rep := range segs {
		out = append(out, normalizeFindings(root, rep)...)
	}
	if unsealed != nil {
		out = append(out, normalizeFindings(root, &container.Report{Findings: []container.Finding{*unsealed}})...)
	}
	return out
}

// liveMetaSync is the op number of the first sync of the live bag's
// directory in trace: the one that makes the live meta's rename durable.
func liveMetaSync(t *testing.T, trace []string) int64 {
	t.Helper()
	for _, line := range trace {
		f := strings.SplitN(line, " ", 3)
		if f[1] == "syncdir" && filepath.Base(f[2]) == "live" {
			n, _ := strconv.ParseInt(f[0], 10, 64)
			return n
		}
	}
	t.Fatal("no sync of the live bag's directory in the trace")
	return 0
}

// barrier is one segment's commit in an op trace: the op number of its
// barrier and of the sync that makes its sealed meta durable.
type barrier struct {
	seg          string // the segment directory
	at, finished int64
}

// barriers lists the commits of a live recording's trace in order.
func barriers(trace []string) []barrier {
	var out []barrier
	for _, line := range trace {
		f := strings.SplitN(line, " ", 3)
		n, _ := strconv.ParseInt(f[0], 10, 64)
		switch f[1] {
		case "syncall":
			for _, p := range strings.Split(f[2], " ") {
				if strings.HasPrefix(filepath.Base(p), "seg-") {
					out = append(out, barrier{seg: p, at: n})
				}
			}
		case "syncdir":
			for i := range out {
				if out[i].seg == f[2] && out[i].finished == 0 {
					out[i].finished = n
				}
			}
		}
	}
	return out
}

// TestCrashBeforeRotationCommitLosesNothing crashes a live recording
// between a segment's barrier and the finish of its commit: at the
// barrier and at every operation after it up to the sync of the sealed
// meta, while the next segment is recording. The closed segment is
// still building then, and the next one is the live tail; Repair
// reseals the first whole, so every message written to it, and to the
// segments before it, is served.
func TestCrashBeforeRotationCommitLosesNothing(t *testing.T) {
	t.Parallel()
	const every, window = 1, time.Second
	root := t.TempDir()
	clean, _, err := liveCrashRecord(t, root, faultfs.Plan{Seed: 1}, every, window)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.New(root, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bag, err := b.Open("live")
	if err != nil {
		t.Fatal(err)
	}
	// upTo[seg][topic] counts the topic's messages in seg and before it.
	upTo := map[string]map[string]int{}
	sum := map[string]int{}
	for _, seg := range bag.Segments() {
		for _, topic := range seg.Topics() {
			tp, err := seg.Topic(topic)
			if err != nil {
				t.Fatal(err)
			}
			n, err := tp.MessageCount()
			if err != nil {
				t.Fatal(err)
			}
			sum[topic] += n
		}
		upTo[filepath.Base(seg.Root())] = maps.Clone(sum)
	}
	trace := clean.Trace()
	commits := barriers(trace)
	if len(commits) != len(bag.Segments()) {
		t.Fatalf("%d commits in the trace, %d segments", len(commits), len(bag.Segments()))
	}
	crashes, lost := 0, 0
	for _, c := range commits[:len(commits)-1] { // the last is the seal's, finished at once
		if !slices.ContainsFunc(trace[c.at:c.finished], func(line string) bool {
			return strings.Contains(line, " mkdir ") && !strings.Contains(line, c.seg)
		}) {
			t.Fatalf("%s: barrier op %d finished at op %d, before the next segment was made: the rotation waited for it", c.seg, c.at, c.finished)
		}
		for n := c.at; n <= c.finished; n++ {
			crashes++
			root := t.TempDir()
			in, attempted, err := liveCrashRecord(t, root, faultfs.Plan{Seed: 7, CrashAt: n}, every, window)
			if err == nil || !in.Crashed() {
				t.Fatalf("CrashAt=%d: recording returned %v, crashed %v", n, err, in.Crashed())
			}
			if _, err := os.Stat(filepath.Join(root, "live", core.LiveMetaFileName)); os.IsNotExist(err) {
				// The meta's directory is synced before any segment exists, so
				// no barrier can lose its rename.
				lost++
				continue
			}
			b2, err := core.New(root, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b2.Repair("live"); err != nil {
				t.Fatalf("CrashAt=%d: Repair: %v", n, err)
			}
			bag, err := b2.Open("live")
			if err != nil {
				t.Fatalf("CrashAt=%d: repaired bag does not open: %v", n, err)
			}
			got := queryPayloads(t, bag, core.QuerySpec{Order: core.OrderTime})
			for topic, want := range upTo[filepath.Base(c.seg)] {
				if len(got[topic]) < want {
					t.Fatalf("CrashAt=%d (%s closed, commit pending): topic %s serves %d messages, %d were written up to that segment", n, filepath.Base(c.seg), topic, len(got[topic]), want)
				}
				for i := 0; i < want; i++ {
					if !bytes.Equal(got[topic][i], attempted[topic][i]) {
						t.Fatalf("CrashAt=%d: topic %s message %d differs from what was recorded", n, topic, i)
					}
				}
			}
		}
	}
	t.Logf("%d crash points across %d pending commits, %d before the live meta was durable", crashes, len(commits)-1, lost)
	if lost > 0 {
		t.Errorf("%d crash points lost the live meta, want none", lost)
	}
}
