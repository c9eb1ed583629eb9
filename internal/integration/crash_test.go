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
	in, root, _, err := duplicateEvery(t, raw, plan, 1)
	return in, root, err
}

// duplicateEvery is duplicateWithPlan at the given index flush cadence.
// It also returns how many messages the scan handed to a topic writer,
// the one whose append observed the crash included.
func duplicateEvery(t *testing.T, raw []byte, plan faultfs.Plan, every int) (*faultfs.Injector, string, int64, error) {
	t.Helper()
	root := t.TempDir()
	in := faultfs.NewInjector(faultfs.OS, plan)
	reg := obs.NewRegistry()
	b, err := core.New(root, core.Options{FS: in, IndexFlushEvery: every, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = b.DuplicateFrom(bytes.NewReader(raw), int64(len(raw)), "sweep", obs.Span{})
	return in, root, reg.Snapshot().Ops["organizer.append"].Count, err
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
// original messages (never altered or reordered ones), short of what
// the scan handed its writer by at most the index flush cadence, all
// the way through the vfs front end. It sweeps two cadences: one write
// per message, and eight messages buffered per write.
func TestCrashConsistencySweep(t *testing.T) {
	t.Parallel()
	raw, expect := buildCrashBag(t)
	for _, every := range []int{1, 8} {
		t.Run(fmt.Sprintf("IndexFlushEvery=%d", every), func(t *testing.T) {
			t.Parallel()
			crashSweepDuplicate(t, raw, expect, every)
		})
	}
}

func crashSweepDuplicate(t *testing.T, raw []byte, expect map[string][][]byte, every int) {
	clean, _, _, err := duplicateEvery(t, raw, faultfs.Plan{Seed: 1}, every)
	if err != nil {
		t.Fatalf("clean duplicate: %v", err)
	}
	total := clean.Ops()
	if total < 50 {
		t.Fatalf("suspiciously few backend ops in a clean duplicate: %d", total)
	}
	t.Logf("sweeping crash points 1..%d", total)
	specs := workload.HandheldSLAMSpecs()

	for n := int64(1); n <= total; n++ {
		in, root, handed, err := duplicateEvery(t, raw, faultfs.Plan{Seed: 99, CrashAt: n}, every)
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
			// The source is round-robin over specs: the scan handed topic
			// j one message per full round, plus one of the partial round
			// when j comes early enough.
			for j, spec := range specs {
				if spec.Name != topic {
					continue
				}
				mine := handed / int64(len(specs))
				if int64(j) < handed%int64(len(specs)) {
					mine++
				}
				if lost := mine - int64(len(got)); lost < 0 || lost > int64(every) {
					t.Fatalf("CrashAt=%d: topic %s kept %d of the %d messages handed to its writer, want at most %d lost", n, topic, len(got), mine, every)
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

// normalizePath strips a run's temp-dir root and the random suffix of
// atomic-write temporaries, so paths from two identically-seeded runs
// can be compared.
func normalizePath(root, p string) string {
	p = strings.ReplaceAll(p, root, "")
	if j := strings.Index(p, faultfs.TempPattern); j >= 0 {
		p = p[:j+len(faultfs.TempPattern)] + "*"
	}
	return p
}

// normalizeFindings applies normalizePath to a fsck report.
func normalizeFindings(root string, rep *container.Report) []container.Finding {
	out := append([]container.Finding(nil), rep.Findings...)
	for i := range out {
		out[i].Path = normalizePath(root, out[i].Path)
		out[i].Detail = strings.ReplaceAll(out[i].Detail, root, "")
	}
	return out
}

// TestCrashSweepDeterministic runs the same seeded plan twice — clean,
// and crashed at several points — and asserts both runs issue the same
// back-end operations in the same order and leave identical fsck
// reports: the property that makes a failing crash point reproducible
// from its seed alone.
func TestCrashSweepDeterministic(t *testing.T) {
	raw, _ := buildCrashBag(t)
	clean, _, err := duplicateWithPlan(t, raw, faultfs.Plan{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := clean.Ops()
	for _, n := range []int64{0, 3, total / 4, total / 2, total - 1} {
		inA, rootA, errA := duplicateWithPlan(t, raw, faultfs.Plan{Seed: 42, CrashAt: n})
		inB, rootB, errB := duplicateWithPlan(t, raw, faultfs.Plan{Seed: 42, CrashAt: n})
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

// TestSealIsOneGroupCommit reads the op trace of the sweep's clean
// 7-topic Duplicate: the seal is one group commit. A topic is two files,
// data and index, and its connection a header appended to the building
// manifest, so the run creates 1 + 2×7 files; every file is written in
// place, so it makes one temporary and one rename — the sealed
// manifest's — where writing each file atomically made 23 of each; one
// barrier over 24 paths (14 topic files, the building manifest, 7 topic
// directories, the root and its parent) syncs every topic file and the
// building manifest after the last write and before that rename; and a
// directory sync makes the rename durable.
func TestSealIsOneGroupCommit(t *testing.T) {
	raw, _ := buildCrashBag(t)
	in, root, err := duplicateWithPlan(t, raw, faultfs.Plan{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	at := map[string]int{} // op kind → its last position in the trace
	lastWrite, barrier := -1, ""
	for i, line := range in.Trace() {
		f := strings.SplitN(line, " ", 3)
		op := f[1]
		count[op]++
		at[op] = i
		switch op {
		case "write":
			if !strings.Contains(f[2], faultfs.TempPattern) {
				lastWrite = i
			}
		case "syncall":
			barrier = f[2]
		}
	}
	if count["createtemp"] != 1 || count["rename"] != 1 {
		t.Errorf("%d createtemp and %d rename operations, want 1 of each", count["createtemp"], count["rename"])
	}
	if count["create"] != 1+2*7 {
		t.Errorf("%d create operations, want 15: the manifest and 7 topics' data and index", count["create"])
	}
	if count["syncall"] != 1 {
		t.Fatalf("%d barriers, want 1", count["syncall"])
	}
	synced := map[string]bool{}
	for _, p := range strings.Split(barrier, " ") {
		synced[p] = true
	}
	if len(synced) != 24 {
		t.Errorf("the barrier names %d paths, want 24", len(synced))
	}
	croot := filepath.Join(root, "sweep")
	if p := filepath.Join(croot, container.MetaFileName); !synced[p] {
		t.Errorf("the barrier does not sync the building manifest %s", p)
	}
	topics, err := os.ReadDir(croot)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, topic := range topics {
		if !topic.IsDir() {
			continue
		}
		for _, name := range []string{container.DataFileName, container.IndexFileName} {
			if p := filepath.Join(croot, topic.Name(), name); !synced[p] {
				t.Errorf("the barrier does not sync %s", p)
			}
			files++
		}
	}
	if files != 7*2 {
		t.Errorf("checked %d topic files, want 14 of 7 topics", files)
	}
	if at["syncall"] < lastWrite || at["syncall"] > at["rename"] {
		t.Errorf("barrier is op %d: want it after the last write (op %d) and before the meta rename (op %d)", at["syncall"]+1, lastWrite+1, at["rename"]+1)
	}
	if count["syncdir"] < 1 || at["syncdir"] < at["rename"] {
		t.Errorf("no directory sync follows the meta rename (op %d)", at["rename"]+1)
	}
}
