package integration

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bagio"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/obs"
	"repro/internal/rosbag"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// crashBagMsgs is the per-topic message count of the sweep's source bag.
// Small enough that sweeping a crash across every backend operation of
// the duplicate stays fast, large enough that every topic spans several
// index flushes.
const crashBagMsgs = 8

// buildCrashBag writes a small bag with the Table II topic mix and
// returns its bytes plus the expected per-topic payload sequences.
func buildCrashBag(t *testing.T) ([]byte, map[string][][]byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "src.bag")
	w, f, err := rosbag.Create(path, rosbag.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	expect := map[string][][]byte{}
	specs := workload.HandheldSLAMSpecs()
	conns := make([]uint32, len(specs))
	for i, spec := range specs {
		id, err := w.AddConnection(spec.Name, spec.Type)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = id
	}
	// Round-robin across topics so every topic is mid-stream at most
	// crash points.
	for i := 0; i < crashBagMsgs; i++ {
		for j, spec := range specs {
			payload := []byte(fmt.Sprintf("%s#%03d|", spec.Name, i))
			for len(payload) < 64 {
				payload = append(payload, byte(7*i+13*j))
			}
			ts := bagio.Time{Sec: uint32(1 + i), NSec: uint32(j) * 1000}
			if err := w.WriteMessage(conns[j], ts, payload); err != nil {
				t.Fatal(err)
			}
			expect[spec.Name] = append(expect[spec.Name], payload)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw, expect
}

// duplicateWithPlan runs one injected duplicate into a fresh backend and
// returns the injector, the backend root and the duplicate error.
func duplicateWithPlan(t *testing.T, raw []byte, plan faultfs.Plan) (*faultfs.Injector, string, error) {
	t.Helper()
	root := t.TempDir()
	in := faultfs.NewInjector(faultfs.OS, plan)
	b, err := core.New(root, core.Options{FS: in, Synchronous: true, IndexFlushEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = b.DuplicateFrom(bytes.NewReader(raw), int64(len(raw)), "sweep", obs.Span{})
	return in, root, err
}

// readTopicPayloads reads a repaired topic's messages back in index
// order.
func readTopicPayloads(t *testing.T, c *container.Container, topic string) [][]byte {
	t.Helper()
	tp, err := c.Topic(topic)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := tp.Entries()
	if err != nil {
		t.Fatal(err)
	}
	r, err := tp.OpenData()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	out := make([][]byte, 0, len(entries))
	var scratch []byte
	for _, e := range entries {
		buf, err := tp.ReadMessageInto(r, e, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, bytes.Clone(buf))
	}
	return out
}

// TestCrashConsistencySweep is the crash-consistency harness: it crashes
// a duplicate at every backend operation boundary and asserts the
// invariant the fsck/repair layer promises — after any crash,
// Fsck detects damage, Repair restores a consistent container, and the
// repaired container serves a byte-identical prefix of every topic's
// original messages (never altered or reordered ones) all the way
// through the vfs front end.
func TestCrashConsistencySweep(t *testing.T) {
	raw, expect := buildCrashBag(t)

	clean, _, err := duplicateWithPlan(t, raw, faultfs.Plan{Seed: 1})
	if err != nil {
		t.Fatalf("clean duplicate: %v", err)
	}
	total := clean.Ops()
	if total < 100 {
		t.Fatalf("suspiciously few backend ops in a clean duplicate: %d", total)
	}
	t.Logf("sweeping crash points 1..%d", total)

	for n := int64(1); n <= total; n++ {
		in, root, err := duplicateWithPlan(t, raw, faultfs.Plan{Seed: 99, CrashAt: n})
		if err == nil {
			t.Fatalf("CrashAt=%d: duplicate succeeded", n)
		}
		if !in.Crashed() {
			t.Fatalf("CrashAt=%d: injector never crashed", n)
		}
		croot := filepath.Join(root, "sweep")

		// Invisible: a crashed duplicate must never be served.
		b2, err := core.New(root, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if names, err := b2.List(); err != nil || len(names) != 0 {
			t.Fatalf("CrashAt=%d: crashed bag is listed (%v, %v)", n, names, err)
		}
		if _, err := b2.Open("sweep"); err == nil {
			t.Fatalf("CrashAt=%d: crashed bag opened", n)
		}

		if _, err := os.Stat(croot); os.IsNotExist(err) {
			continue // crash before the container root existed: nothing to repair
		}

		// Detectable: fsck must flag the damage.
		rep, err := container.Fsck(croot)
		if err != nil {
			t.Fatalf("CrashAt=%d: fsck: %v", n, err)
		}
		if rep.Clean() {
			t.Fatalf("CrashAt=%d: fsck found nothing on a crashed container", n)
		}

		// Repairable: repair must converge to a clean container.
		after, err := b2.Repair("sweep")
		if err != nil {
			t.Fatalf("CrashAt=%d: repair: %v", n, err)
		}
		if len(after) != 1 || !after[0].Clean() {
			t.Fatalf("CrashAt=%d: post-repair reports: %v", n, after)
		}

		// Prefix property: every surviving topic serves a byte-identical
		// prefix of its original message sequence.
		c, err := container.Open(croot)
		if err != nil {
			t.Fatalf("CrashAt=%d: open repaired: %v", n, err)
		}
		for _, topic := range c.Topics() {
			got := readTopicPayloads(t, c, topic)
			want := expect[topic]
			if len(got) > len(want) {
				t.Fatalf("CrashAt=%d: topic %s has %d messages, source had %d", n, topic, len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("CrashAt=%d: topic %s message %d differs from source", n, topic, i)
				}
			}
		}

		// Round trip: the repaired bag must serve through the front end.
		if _, err := b2.Open("sweep"); err != nil {
			t.Fatalf("CrashAt=%d: repaired bag does not open: %v", n, err)
		}
		fe, err := vfs.Mount(b2, filepath.Join(root, "spool"))
		if err != nil {
			t.Fatal(err)
		}
		rf, err := fe.Open("sweep.bag")
		if err != nil {
			t.Fatalf("CrashAt=%d: vfs open of repaired bag: %v", n, err)
		}
		if _, err := rosbag.OpenReader(rf, rf.Size()); err != nil {
			t.Fatalf("CrashAt=%d: repaired bag stream does not parse: %v", n, err)
		}
		rf.Close()
	}
}

// normalizeFindings strips the run-specific temp-dir prefix and the
// random suffix of atomic-write temporaries so reports from two
// identically-seeded runs can be compared.
func normalizeFindings(root string, rep *container.Report) []container.Finding {
	out := append([]container.Finding(nil), rep.Findings...)
	for i := range out {
		p := strings.ReplaceAll(out[i].Path, root, "")
		if j := strings.Index(p, faultfs.TempPattern); j >= 0 {
			p = p[:j+len(faultfs.TempPattern)] + "*"
		}
		out[i].Path = p
		out[i].Detail = strings.ReplaceAll(out[i].Detail, root, "")
	}
	return out
}

// TestCrashSweepDeterministic runs the same seeded crash plan twice and
// asserts both runs produce identical op traces and identical fsck
// reports — the property that makes a failing crash point reproducible
// from its seed alone.
func TestCrashSweepDeterministic(t *testing.T) {
	raw, _ := buildCrashBag(t)
	clean, _, err := duplicateWithPlan(t, raw, faultfs.Plan{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := clean.Ops()
	for _, n := range []int64{3, total / 4, total / 2, total - 1} {
		if n < 1 {
			continue
		}
		inA, rootA, errA := duplicateWithPlan(t, raw, faultfs.Plan{Seed: 42, CrashAt: n})
		inB, rootB, errB := duplicateWithPlan(t, raw, faultfs.Plan{Seed: 42, CrashAt: n})
		if (errA == nil) != (errB == nil) {
			t.Fatalf("CrashAt=%d: outcomes diverge: %v vs %v", n, errA, errB)
		}
		if inA.Ops() != inB.Ops() {
			t.Fatalf("CrashAt=%d: op counts diverge: %d vs %d", n, inA.Ops(), inB.Ops())
		}
		crootA, crootB := filepath.Join(rootA, "sweep"), filepath.Join(rootB, "sweep")
		if _, err := os.Stat(crootA); os.IsNotExist(err) {
			continue
		}
		repA, err := container.Fsck(crootA)
		if err != nil {
			t.Fatal(err)
		}
		repB, err := container.Fsck(crootB)
		if err != nil {
			t.Fatal(err)
		}
		fa, fb := normalizeFindings(crootA, repA), normalizeFindings(crootB, repB)
		if !reflect.DeepEqual(fa, fb) {
			t.Fatalf("CrashAt=%d: fsck reports diverge:\n%v\n%v", n, fa, fb)
		}
	}
}
