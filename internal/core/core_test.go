package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/bagio"
	"repro/internal/faultfs"
	"repro/internal/msgs"
	"repro/internal/rosbag"
)

// makeSourceBag writes a bag with three topics onto disk and returns its
// path. /imu at 10 Hz, /camera at 1 Hz, /tf at 5 Hz over `seconds`.
func makeSourceBag(t *testing.T, dir string, seconds int) string {
	t.Helper()
	path := filepath.Join(dir, "source.bag")
	w, f, err := rosbag.Create(path, rosbag.WriterOptions{ChunkThreshold: 4096})
	if err != nil {
		t.Fatal(err)
	}
	base := int64(1_000_000_000_000_000_000) // 1e18 ns ≈ year 2001
	for s := 0; s < seconds; s++ {
		for i := 0; i < 10; i++ {
			ts := bagio.TimeFromNanos(base + int64(s)*1e9 + int64(i)*1e8)
			m := &msgs.Imu{Header: msgs.Header{Seq: uint32(s*10 + i), Stamp: ts, FrameID: "/imu"}}
			if err := w.WriteMsg("/imu", ts, m); err != nil {
				t.Fatal(err)
			}
		}
		ts := bagio.TimeFromNanos(base + int64(s)*1e9 + 5e8)
		img := &msgs.Image{Header: msgs.Header{Seq: uint32(s), Stamp: ts}, Height: 8, Width: 8, Encoding: "rgb8", Step: 24, Data: bytes.Repeat([]byte{byte(s)}, 192)}
		if err := w.WriteMsg("/camera/rgb/image_color", ts, img); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			ts := bagio.TimeFromNanos(base + int64(s)*1e9 + int64(i)*2e8 + 1e7)
			tf := &msgs.TFMessage{Transforms: []msgs.TransformStamped{{Header: msgs.Header{Stamp: ts}, ChildFrameID: "/base"}}}
			if err := w.WriteMsg("/tf", ts, tf); err != nil {
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

func newBORA(t *testing.T) *BORA {
	t.Helper()
	b, err := New(filepath.Join(t.TempDir(), "backend"), Options{TimeWindow: time.Second, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDuplicateAndOpen(t *testing.T) {
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), 10)
	bag, stats, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatalf("Duplicate: %v", err)
	}
	if stats.Topics != 3 {
		t.Errorf("stats.Topics = %d", stats.Topics)
	}
	if stats.Messages != 160 { // 10s × (10 imu + 1 img + 5 tf)
		t.Errorf("stats.Messages = %d", stats.Messages)
	}
	if stats.Bytes <= 0 {
		t.Error("stats.Bytes not counted")
	}
	want := []string{"/camera/rgb/image_color", "/imu", "/tf"}
	if got := bag.Topics(); !reflect.DeepEqual(got, want) {
		t.Errorf("Topics = %v", got)
	}
	// Independent re-open.
	bag2, err := b.Open("bag1")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := bag2.MessageCount(); err != nil || n != 160 {
		t.Errorf("MessageCount = %d, %v", n, err)
	}
	if n, err := bag2.MessageCount("/imu"); err != nil || n != 100 {
		t.Errorf("MessageCount(/imu) = %d, %v", n, err)
	}
	names, err := b.List()
	if err != nil || !reflect.DeepEqual(names, []string{"bag1"}) {
		t.Errorf("List = %v, %v", names, err)
	}
}

func TestQueryByTopic(t *testing.T) {
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), 5)
	bag, _, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	var perTopicOrdered = true
	var last bagio.Time
	err = bag.Query(QuerySpec{Topics: []string{"/imu", "/tf"}}, func(m MessageRef) error {
		if len(got) == 0 || got[len(got)-1] != m.Conn.Topic {
			got = append(got, m.Conn.Topic)
			last = bagio.Time{}
		}
		if m.Time.Before(last) {
			perTopicOrdered = false
		}
		last = m.Time
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Messages must arrive grouped per topic, in request order.
	if !reflect.DeepEqual(got, []string{"/imu", "/tf"}) {
		t.Errorf("topic grouping = %v", got)
	}
	if !perTopicOrdered {
		t.Error("per-topic timestamp order violated")
	}
	if bag.Stats().MessagesRead != 75 {
		t.Errorf("MessagesRead = %d, want 75", bag.Stats().MessagesRead)
	}
	if err := bag.Query(QuerySpec{Topics: []string{"/missing"}}, func(MessageRef) error { return nil }); err == nil {
		t.Error("unknown topic should fail via the tag table")
	}
}

func TestQueryDecodable(t *testing.T) {
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), 3)
	bag, _, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	err = bag.Query(QuerySpec{Topics: []string{"/camera/rgb/image_color"}}, func(m MessageRef) error {
		var img msgs.Image
		if err := img.Unmarshal(m.Data); err != nil {
			t.Errorf("decode image: %v", err)
		}
		if img.Height != 8 || img.Width != 8 {
			t.Errorf("image decoded wrong: %dx%d", img.Height, img.Width)
		}
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("read %d images", count)
	}
}

func TestQueryTimeRange(t *testing.T) {
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), 20)
	bag, _, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatal(err)
	}
	base := int64(1_000_000_000_000_000_000)
	start := bagio.TimeFromNanos(base + 5e9)
	end := bagio.TimeFromNanos(base + 10e9 - 1)
	var count int
	err = bag.Query(QuerySpec{Topics: []string{"/imu"}, Start: start, End: end}, func(m MessageRef) error {
		if m.Time.Before(start) || end.Before(m.Time) {
			t.Errorf("message at %v outside window", m.Time)
		}
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 50 { // 5 seconds × 10 Hz
		t.Errorf("count = %d, want 50", count)
	}
	st := bag.Stats()
	if st.WindowsScanned == 0 {
		t.Error("time query did not use the coarse index")
	}
	// The coarse index must have restricted the scan: 20s of IMU data is
	// 200 entries, the window covers ~50-60.
	if st.EntriesScanned > 80 {
		t.Errorf("EntriesScanned = %d; coarse index did not restrict the scan", st.EntriesScanned)
	}
	if err := bag.Query(QuerySpec{Start: end, End: start}, func(MessageRef) error { return nil }); err == nil {
		t.Error("inverted time range should fail")
	}
}

func TestQueryChrono(t *testing.T) {
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), 5)
	bag, _, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatal(err)
	}
	var last bagio.Time
	var count int
	err = bag.Query(QuerySpec{Order: OrderTime}, func(m MessageRef) error {
		if m.Time.Before(last) {
			t.Errorf("chronological order violated: %v after %v", m.Time, last)
		}
		last = m.Time
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 80 { // 5 × 16
		t.Errorf("count = %d", count)
	}
}

func TestExportRoundTrip(t *testing.T) {
	b := newBORA(t)
	srcDir := t.TempDir()
	src := makeSourceBag(t, srcDir, 4)
	bag, _, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatal(err)
	}
	exported := filepath.Join(srcDir, "exported.bag")
	f, err := os.Create(exported)
	if err != nil {
		t.Fatal(err)
	}
	if err := bag.Export(f, rosbag.WriterOptions{ChunkThreshold: 4096}); err != nil {
		t.Fatalf("Export: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r, rf, err := rosbag.Open(exported)
	if err != nil {
		t.Fatalf("open exported bag: %v", err)
	}
	defer rf.Close()
	if got := r.MessageCount(); got != 64 {
		t.Errorf("exported MessageCount = %d, want 64", got)
	}
	if got := r.Topics(); len(got) != 3 {
		t.Errorf("exported Topics = %v", got)
	}
	// Message payloads must survive the round trip bit-exactly.
	var original [][]byte
	if err := bag.Query(QuerySpec{Order: OrderTime}, func(m MessageRef) error {
		original = append(original, append([]byte(nil), m.Data...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	i := 0
	err = r.ReadMessages(rosbag.Query{}, func(m rosbag.MessageRef) error {
		if i < len(original) && !bytes.Equal(m.Data, original[i]) {
			t.Errorf("message %d payload mismatch", i)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(original) {
		t.Errorf("exported %d messages, original %d", i, len(original))
	}
}

func TestCopyContainer(t *testing.T) {
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), 3)
	if _, _, err := b.Duplicate(src, "bag1"); err != nil {
		t.Fatal(err)
	}
	b2, err := New(filepath.Join(t.TempDir(), "backend2"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	bag, err := b2.CopyContainer(filepath.Join(b.Root(), "bag1"), "bagcopy")
	if err != nil {
		t.Fatalf("CopyContainer: %v", err)
	}
	if n, err := bag.MessageCount(); err != nil || n != 48 {
		t.Errorf("copied MessageCount = %d, %v", n, err)
	}
	if _, err := b2.CopyContainer(filepath.Join(b.Root(), "nonexistent"), "x"); err == nil {
		t.Error("CopyContainer from non-container should fail")
	}
}

// TestCopyContainerCommitsLast crashes a container copy at every
// back-end operation: what is left behind either refuses to open and
// stays off the listing, or is the whole source, topic file for topic
// file — never a sealed container with topics missing.
func TestCopyContainerCommitsLast(t *testing.T) {
	b := newBORA(t)
	if _, _, err := b.Duplicate(makeSourceBag(t, t.TempDir(), 3), "bag1"); err != nil {
		t.Fatal(err)
	}
	srcRoot := filepath.Join(b.Root(), "bag1")
	want := topicFiles(t, srcRoot)
	// copyInto copies bag1 into a fresh back end through inj and returns
	// a plain view of what the copy left there.
	copyInto := func(inj *faultfs.Injector) (*BORA, error) {
		dir := filepath.Join(t.TempDir(), "backend2")
		dst, err := New(dir, Options{FS: inj})
		if err != nil {
			t.Fatal(err)
		}
		_, copyErr := dst.CopyContainer(srcRoot, "copy")
		after, err := New(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return after, copyErr
	}
	clean := faultfs.NewInjector(faultfs.OS, faultfs.Plan{})
	if _, err := copyInto(clean); err != nil {
		t.Fatal(err)
	}
	total := clean.Ops()
	if total < int64(len(want)) {
		t.Fatalf("copying %d topic files took %d operations through Options.FS", len(want), total)
	}
	for at := int64(1); at <= total; at++ {
		after, err := copyInto(faultfs.NewInjector(faultfs.OS, faultfs.Plan{Seed: at, CrashAt: at}))
		if err == nil {
			t.Errorf("crash at op %d: the copy reported success", at)
		}
		names, lerr := after.List()
		if lerr != nil {
			t.Fatal(lerr)
		}
		if _, err := after.Open("copy"); err != nil {
			if len(names) != 0 {
				t.Errorf("crash at op %d: List shows %v though Open refuses: %v", at, names, err)
			}
			continue
		}
		if got := topicFiles(t, filepath.Join(after.Root(), "copy")); !reflect.DeepEqual(got, want) {
			t.Errorf("crash at op %d: the copy opens with %d of %d topic files intact", at, len(got), len(want))
		}
	}
}

func TestRemove(t *testing.T) {
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), 2)
	if _, _, err := b.Duplicate(src, "bag1"); err != nil {
		t.Fatal(err)
	}
	if err := b.Remove("bag1"); err != nil {
		t.Fatal(err)
	}
	if names, _ := b.List(); len(names) != 0 {
		t.Errorf("List after Remove = %v", names)
	}
	if err := b.Remove("bag1"); err == nil {
		t.Error("Remove of missing bag should fail")
	}
	if err := b.Remove("."); err == nil {
		t.Error("Remove of non-container should fail")
	}
}

func TestOpenMissing(t *testing.T) {
	b := newBORA(t)
	if _, err := b.Open("nope"); err == nil {
		t.Error("Open of missing bag should fail")
	}
}

func TestDuplicateErrors(t *testing.T) {
	b := newBORA(t)
	if _, _, err := b.Duplicate(filepath.Join(t.TempDir(), "missing.bag"), "x"); err == nil {
		t.Error("Duplicate of missing file should fail")
	}
	junk := filepath.Join(t.TempDir(), "junk.bag")
	if err := os.WriteFile(junk, []byte("not a bag at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Duplicate(junk, "y"); err == nil {
		t.Error("Duplicate of junk file should fail")
	}
	src := makeSourceBag(t, t.TempDir(), 1)
	if _, _, err := b.Duplicate(src, "dup"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Duplicate(src, "dup"); err == nil {
		t.Error("Duplicate onto an existing name should fail")
	}
}

func TestTagTableMatchesContainer(t *testing.T) {
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), 2)
	bag, _, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatal(err)
	}
	tags := bag.TagTable()
	if tags.Len() != 3 {
		t.Errorf("tag table has %d entries", tags.Len())
	}
	for _, topic := range bag.Topics() {
		path, ok := tags.Get(topic)
		if !ok {
			t.Errorf("tag table missing %s", topic)
			continue
		}
		want, err := bag.Container().TopicPath(topic)
		if err != nil || path != want {
			t.Errorf("tag path for %s = %s, want %s (%v)", topic, path, want, err)
		}
	}
}

func TestConnectionsSurviveDuplication(t *testing.T) {
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), 1)
	bag, _, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatal(err)
	}
	conns, err := bag.Connections()
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]string{}
	for _, c := range conns {
		types[c.Topic] = c.Type
		if c.MD5Sum == "" {
			t.Errorf("connection %s lost its md5", c.Topic)
		}
	}
	if types["/imu"] != "sensor_msgs/Imu" || types["/tf"] != "tf2_msgs/TFMessage" {
		t.Errorf("types = %v", types)
	}
}

func TestConcurrentQueriesOnOneBag(t *testing.T) {
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), 10)
	bag, _, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatal(err)
	}
	// Re-open so the time indexes and entries load lazily under
	// concurrency.
	bag, err = b.Open("bag1")
	if err != nil {
		t.Fatal(err)
	}
	base := int64(1_000_000_000_000_000_000)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	counts := make([]int, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				errs[i] = bag.Query(QuerySpec{Topics: []string{"/imu"}}, func(MessageRef) error { counts[i]++; return nil })
			case 1:
				errs[i] = bag.Query(QuerySpec{Topics: []string{"/tf"},
					Start: bagio.TimeFromNanos(base + 2e9), End: bagio.TimeFromNanos(base + 6e9)},
					func(MessageRef) error { counts[i]++; return nil })
			case 2:
				errs[i] = bag.Query(QuerySpec{Order: OrderTime},
					func(MessageRef) error { counts[i]++; return nil })
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", i, err)
		}
		if counts[i] == 0 {
			t.Errorf("goroutine %d read nothing", i)
		}
	}
	if st := bag.Stats(); st.MessagesRead == 0 {
		t.Error("stats empty after concurrent queries")
	}
}
