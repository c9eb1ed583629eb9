package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bagio"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/obs"
	"repro/internal/rosbag"
)

var fsckTopics = []string{"/imu", "/tf", "/camera/rgb/image_color"}

// fsckSourceBag writes a small three-topic bag, round-robin so every
// topic is mid-stream at the crash points below.
func fsckSourceBag(t *testing.T) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "src.bag")
	w, f, err := rosbag.Create(path, rosbag.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for j, topic := range fsckTopics {
			conn, err := w.AddConnection(topic, "bora_test/Msg")
			if err != nil {
				t.Fatal(err)
			}
			payload := bytes.Repeat([]byte{byte(16*i + j)}, 64)
			if err := w.WriteMessage(conn, bagio.Time{Sec: uint32(1 + i), NSec: uint32(j)}, payload); err != nil {
				t.Fatal(err)
			}
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
	return raw
}

// fsckBackend opens the fixture back end; crashAt > 0 routes it through
// an injector that crashes at that back-end operation.
func fsckBackend(t *testing.T, dir string, crashAt int64) *core.BORA {
	t.Helper()
	opts := core.Options{IndexFlushEvery: 1}
	if crashAt > 0 {
		opts.FS = faultfs.NewInjector(faultfs.OS, faultfs.Plan{Seed: 5, CrashAt: crashAt})
	}
	b, err := core.New(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// crashPoint names a back-end operation by what it does — "op path",
// the path relative to the back end — and by which occurrence of it, so
// a fixture crashes at the same step however many operations the write
// path issues before it.
type crashPoint struct {
	op  string
	nth int
}

// number runs build fault-free through an injector and returns the
// number of p's operation in that run's trace: the CrashAt that stops a
// run of build at p.
func (p crashPoint) number(t *testing.T, build func(*core.BORA) error) int64 {
	t.Helper()
	backend := t.TempDir()
	in := faultfs.NewInjector(faultfs.OS, faultfs.Plan{})
	b, err := core.New(backend, core.Options{IndexFlushEvery: 1, FS: in})
	if err != nil {
		t.Fatal(err)
	}
	if err := build(b); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, line := range in.Trace() {
		n, op, _ := strings.Cut(line, " ")
		if strings.ReplaceAll(op, backend+"/", "") == p.op {
			if seen++; seen == p.nth {
				at, err := strconv.ParseInt(n, 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				return at
			}
		}
	}
	t.Fatalf("a clean run has no operation %q number %d", p.op, p.nth)
	return 0
}

// fsckRecordLive records three segments' worth of messages into the
// live bag "bag" and seals it, returning the first error.
func fsckRecordLive(b *core.BORA) error {
	rec, err := b.CreateLiveBag("bag", time.Second)
	if err != nil {
		return err
	}
	for i := 0; i < 10; i++ {
		for j, topic := range fsckTopics {
			conn, err := rec.AddConnection(topic, "bora_test/Msg")
			if err != nil {
				return err
			}
			ts := bagio.TimeFromNanos(int64(1e18) + int64(i)*300e6 + int64(j))
			if err := rec.WriteMessage(conn, ts, bytes.Repeat([]byte{byte(16*i + j)}, 64)); err != nil {
				return err
			}
		}
	}
	return rec.Seal()
}

// runFsck runs `borabag fsck -q` (plus extra flags) and returns what it
// printed, with the back-end path replaced by "<be>", and its error.
func runFsck(t *testing.T, backend string, extra ...string) (string, error) {
	t.Helper()
	out, ferr := captureStdout(t, func() error {
		return cmdFsck(append([]string{"-backend", backend, "-name", "bag", "-q"}, extra...))
	})
	return strings.ReplaceAll(out, backend, "<be>"), ferr
}

// TestFsckCommandBothLayouts pins `borabag fsck [-repair]` on the four
// states a bag directory can be in — summary lines and exit status
// captured from the two-code-path implementation this one replaced —
// and on a topic in the striped layout of an older build, which is one
// finding that -repair refuses rather than "fixes" by dropping the topic.
func TestFsckCommandBothLayouts(t *testing.T) {
	raw := fsckSourceBag(t)
	duplicate := func(b *core.BORA) error {
		_, _, err := b.DuplicateFrom(bytes.NewReader(raw), int64(len(raw)), "bag", obs.Span{})
		return err
	}
	// striped rewrites the bag the way an older build wrote one whose /tf
	// data is striped: a text meta, and a conn file declaring the lanes.
	striped := func(b *core.BORA) error {
		if err := duplicate(b); err != nil {
			return err
		}
		h := bagio.Header{}
		h.PutU32("conn", 1)
		h.PutString("topic", "/tf")
		h.PutString("type", "bora_test/Msg")
		h.PutU32("stripes", 4)
		h.PutU64("stripe_size", 4096)
		bag := filepath.Join(b.Root(), "bag")
		if err := os.WriteFile(filepath.Join(bag, container.EncodeTopicDir("/tf"), "conn"), h.Encode(), 0o644); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(bag, container.MetaFileName), []byte("bora-container v2\nstate=sealed\ngen=5\n"), 0o644)
	}
	const stripedRefusal = "bora: repair <be>/bag: container: repair <be>/bag: container: meta of <be>/bag: " +
		"container: meta written by an older build (text format) is not supported"
	type run struct{ out, err string }
	cases := []struct {
		name  string
		build func(*core.BORA) error
		crash crashPoint // none: the build runs to completion
		// check is plain fsck of the fixture, repair is fsck -repair of
		// it, after is plain fsck once repaired.
		check, repair, after run
	}{
		{name: "clean classic", build: duplicate,
			check:  run{out: "<be>/bag: clean (3 topics)\n"},
			repair: run{out: "<be>/bag: clean (3 topics)\n"},
			after:  run{out: "<be>/bag: clean (3 topics)\n"}},
		{name: "crashed classic duplicate", build: duplicate,
			crash: crashPoint{op: "write bag/camera#rgb#image_color/index", nth: 5},
			check: run{out: "<be>/bag: 3 findings across 3 topics\n",
				err: "fsck: container is damaged (re-run with -repair to fix)"},
			repair: run{out: "<be>/bag: 3 findings across 3 topics\n<be>/bag: repaired, now clean (3 topics)\n"},
			after:  run{out: "<be>/bag: clean (3 topics)\n"}},
		{name: "complete live", build: fsckRecordLive,
			check:  run{out: "<be>/bag: clean (live layout, 3 segments)\n"},
			repair: run{out: "<be>/bag: clean (live layout, 3 segments)\n"},
			after:  run{out: "<be>/bag: clean (live layout, 3 segments)\n"}},
		// Five findings: seg-00000001 is torn and the live meta says
		// recording, and seg-00000000 is still building — its rotation
		// issued the commit, and the next rotation or the seal finishes it.
		{name: "crashed live recording", build: fsckRecordLive,
			crash: crashPoint{op: "create bag/seg-00000001/imu/index", nth: 1},
			check: run{out: "<be>/bag: 5 findings across 2 segments (live layout)\n",
				err: "fsck: live bag is damaged (re-run with -repair to fix)"},
			repair: run{out: "<be>/bag: 5 findings across 2 segments (live layout)\n<be>/bag: repaired, now sealed and clean (2 segments)\n"},
			after:  run{out: "<be>/bag: clean (live layout, 2 segments)\n"}},
		{name: "striped topic of an older build", build: striped,
			check: run{out: "<be>/bag: 1 findings across 3 topics\n",
				err: "fsck: container is damaged (re-run with -repair to fix)"},
			repair: run{out: "<be>/bag: 1 findings across 3 topics\n", err: "fsck: repair: " + stripedRefusal},
			after: run{out: "<be>/bag: 1 findings across 3 topics\n",
				err: "fsck: container is damaged (re-run with -repair to fix)"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var crashAt int64
			if tc.crash.op != "" {
				crashAt = tc.crash.number(t, tc.build)
			}
			backend := t.TempDir()
			err := tc.build(fsckBackend(t, backend, crashAt))
			if (err != nil) != (crashAt > 0) {
				t.Fatalf("building the fixture: %v", err)
			}
			for _, step := range []struct {
				what  string
				extra []string
				want  run
			}{
				{"fsck", nil, tc.check},
				{"fsck -repair", []string{"-repair"}, tc.repair},
				{"fsck after repair", nil, tc.after},
			} {
				out, err := runFsck(t, backend, step.extra...)
				got := run{out: out}
				if err != nil {
					got.err = strings.ReplaceAll(err.Error(), backend, "<be>")
				}
				if got != step.want {
					t.Errorf("%s:\n got %+q\nwant %+q", step.what, got, step.want)
				}
			}
		})
	}
}

// TestFsckCommandEverySegment corrupts one data byte in the second
// segment of a live bag: fsck must report it, not just check the first
// segment.
func TestFsckCommandEverySegment(t *testing.T) {
	backend := t.TempDir()
	b := fsckBackend(t, backend, 0)
	if err := fsckRecordLive(b); err != nil {
		t.Fatal(err)
	}
	fsck := func() (string, error) {
		return captureStdout(t, func() error { return cmdFsck([]string{"-backend", backend, "-name", "bag"}) })
	}
	if out, err := fsck(); err != nil {
		t.Fatalf("fsck of the clean live bag: %v\n%s", err, out)
	}
	bag, err := b.Open("bag")
	if err != nil {
		t.Fatal(err)
	}
	seg := bag.Segments()[1]
	if name := filepath.Base(seg.Root()); name != "seg-00000001" {
		t.Fatalf("second segment is %s, want seg-00000001", name)
	}
	tp, err := seg.Topic(seg.Topics()[0])
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(tp.Dir(), container.DataFileName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0xFF
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := fsck()
	found := false
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		found = found || len(f) > 1 && f[0] == string(container.FindingChecksumMismatch) && f[1] == "seg-00000001"
	}
	if err == nil || !found {
		t.Errorf("fsck with segment 1 corrupted: err %v, want a checksum-mismatch in seg-00000001; output\n%s", err, out)
	}
}
