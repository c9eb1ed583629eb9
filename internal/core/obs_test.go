package core

import (
	"fmt"
	"io"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bagio"
	"repro/internal/msgs"
	"repro/internal/obs"
	"repro/internal/rosbag"
)

// discardSeeker satisfies io.WriteSeeker for Export without keeping the
// stream.
type discardSeeker struct{ off int64 }

func (d *discardSeeker) Write(p []byte) (int, error) { d.off += int64(len(p)); return len(p), nil }
func (d *discardSeeker) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		d.off = off
	case io.SeekCurrent:
		d.off += off
	}
	return d.off, nil
}

// TestObsCoversAllLayers drives duplicate/open/query/export through an
// instrumented BORA instance and checks that every layer of the stack
// reported into the single registry — the unified-instrument property
// the per-package Stats structs could not provide.
func TestObsCoversAllLayers(t *testing.T) {
	reg := obs.NewRegistry()
	b, err := New(filepath.Join(t.TempDir(), "backend"), Options{TimeWindow: time.Second, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	src := makeSourceBag(t, t.TempDir(), 5)
	bag, _, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatal(err)
	}
	if err := bag.Query(QuerySpec{Topics: []string{"/imu"}}, func(MessageRef) error { return nil }); err != nil {
		t.Fatal(err)
	}
	start := bagio.TimeFromNanos(1_000_000_000_000_000_000)
	end := bagio.TimeFromNanos(1_000_000_000_000_000_000 + 2e9)
	if err := bag.Query(QuerySpec{Start: start, End: end}, func(MessageRef) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := bag.Export(&discardSeeker{}, rosbag.WriterOptions{}); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	for _, op := range []string{
		"core.duplicate", "core.open", "core.read", "core.read_time",
		"core.read_topic", "core.read_chrono", "core.export",
		"organizer.append",
		"container.index_load", "container.read",
		"rosbag.scan", "rosbag.scan_chunk",
		"tagman.build",
	} {
		o, ok := snap.Ops[op]
		if !ok || o.Count == 0 {
			t.Errorf("op %q not recorded (snapshot: %+v)", op, snap.Ops[op])
		}
	}
	if snap.Ops["core.duplicate"].Bytes == 0 {
		t.Error("core.duplicate recorded no bytes")
	}
	if snap.Ops["container.read"].Bytes == 0 {
		t.Error("container.read recorded no bytes")
	}
}

// TestObsDisabledIsInert checks the nil-registry path end to end.
func TestObsDisabledIsInert(t *testing.T) {
	b := newBORA(t) // no Obs in Options
	if b.Obs() != nil {
		t.Fatal("Obs() should be nil when unset")
	}
	src := makeSourceBag(t, t.TempDir(), 2)
	bag, _, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatal(err)
	}
	if err := bag.Query(QuerySpec{}, func(MessageRef) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// makeManyTopicBag writes a bag with `topics` IMU topics of `perTopic`
// messages each and returns its path.
func makeManyTopicBag(t testing.TB, dir string, topics, perTopic int) string {
	t.Helper()
	path := filepath.Join(dir, "many.bag")
	w, f, err := rosbag.Create(path, rosbag.WriterOptions{ChunkThreshold: 4096})
	if err != nil {
		t.Fatal(err)
	}
	base := int64(1_000_000_000_000_000_000)
	for i := 0; i < perTopic; i++ {
		for tp := 0; tp < topics; tp++ {
			ts := bagio.TimeFromNanos(base + int64(i)*1e8 + int64(tp))
			m := &msgs.Imu{Header: msgs.Header{Seq: uint32(i), Stamp: ts, FrameID: "/imu"}}
			if err := w.WriteMsg(fmt.Sprintf("/t%d", tp), ts, m); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// BenchmarkObsOverhead guards the <5% overhead budget of the obs layer
// on the hot read path. Bare and instrumented reads of identical bags
// are interleaved within the same timing loop — back-to-back pairs
// cancel the slow host drift that dwarfs the real delta when the two
// variants run as separate sub-benchmarks — and the relative overhead
// is reported as the overhead-% metric. The instrumented cost per read
// is a handful of spans plus one batched NoteReads per topic; nothing
// per-message.
func BenchmarkObsOverhead(b *testing.B) {
	dir := b.TempDir()
	src := makeManyTopicBag(b, dir, 4, 500)
	open := func(reg *obs.Registry) *Bag {
		backend, err := New(filepath.Join(b.TempDir(), "backend"), Options{Obs: reg})
		if err != nil {
			b.Fatal(err)
		}
		bag, _, err := backend.Duplicate(src, "bench")
		if err != nil {
			b.Fatal(err)
		}
		return bag
	}
	bare := open(nil)
	instrumented := open(obs.NewRegistry())
	var bytes int64
	read := func(bag *Bag) time.Duration {
		start := time.Now()
		if err := bag.Query(QuerySpec{}, func(m MessageRef) error {
			bytes += int64(len(m.Data))
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	// Warm both paths (page cache, lazy index loads) before timing.
	read(bare)
	read(instrumented)
	var bareNs, instNs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bareNs += int64(read(bare))
		instNs += int64(read(instrumented))
	}
	b.StopTimer()
	_ = bytes
	if bareNs > 0 {
		b.ReportMetric((float64(instNs)/float64(bareNs)-1)*100, "overhead-%")
	}
}
