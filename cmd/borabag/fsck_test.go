package main

import (
	"bytes"
	"os"
	"path/filepath"
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
	opts := core.Options{Synchronous: true, IndexFlushEvery: 1}
	if crashAt > 0 {
		opts.FS = faultfs.NewInjector(faultfs.OS, faultfs.Plan{Seed: 5, CrashAt: crashAt})
	}
	b, err := core.New(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return b
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
	// striped rewrites /tf's conn file the way the older build wrote it.
	striped := func(b *core.BORA) error {
		if err := duplicate(b); err != nil {
			return err
		}
		path := filepath.Join(b.Root(), "bag", container.EncodeTopicDir("/tf"), container.ConnFileName)
		buf, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h, err := bagio.DecodeHeader(buf)
		if err != nil {
			return err
		}
		h.PutU32("stripes", 4)
		h.PutU64("stripe_size", 4096)
		return os.WriteFile(path, h.Encode(), 0o644)
	}
	const stripedRefusal = "bora: repair <be>/bag: container: repair <be>/bag/tf/conn: " +
		"striped topic data (written by an older build) is not supported"
	type run struct{ out, err string }
	cases := []struct {
		name    string
		build   func(*core.BORA) error
		crashAt int64
		// check is plain fsck of the fixture, repair is fsck -repair of
		// it, after is plain fsck once repaired.
		check, repair, after run
	}{
		{name: "clean classic", build: duplicate,
			check:  run{out: "<be>/bag: clean (3 topics)\n"},
			repair: run{out: "<be>/bag: clean (3 topics)\n"},
			after:  run{out: "<be>/bag: clean (3 topics)\n"}},
		{name: "crashed classic duplicate", build: duplicate, crashAt: 60,
			check: run{out: "<be>/bag: 9 findings across 3 topics\n",
				err: "fsck: container is damaged (re-run with -repair to fix)"},
			repair: run{out: "<be>/bag: 9 findings across 3 topics\n<be>/bag: repaired, now clean (3 topics)\n"},
			after:  run{out: "<be>/bag: clean (3 topics)\n"}},
		{name: "complete live", build: fsckRecordLive,
			check:  run{out: "<be>/bag: clean (live layout, 3 segments)\n"},
			repair: run{out: "<be>/bag: clean (live layout, 3 segments)\n"},
			after:  run{out: "<be>/bag: clean (live layout, 3 segments)\n"}},
		{name: "crashed live recording", build: fsckRecordLive, crashAt: 120,
			check: run{out: "<be>/bag: 4 findings across 2 segments (live layout)\n",
				err: "fsck: live bag is damaged (re-run with -repair to fix)"},
			repair: run{out: "<be>/bag: 4 findings across 2 segments (live layout)\n<be>/bag: repaired, now sealed and clean (2 segments)\n"},
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
			backend := t.TempDir()
			err := tc.build(fsckBackend(t, backend, tc.crashAt))
			if (err != nil) != (tc.crashAt > 0) {
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
