package container

import (
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/bagio"
	"repro/internal/obs"
	"repro/internal/timeindex"
)

// TestTopicWriterPersistsTimeIndex: the writer persists what a topic's
// coarse index is made of — the window it was given, in the manifest —
// and a reopened topic builds, from its index, the same index the
// appends describe.
func TestTopicWriterPersistsTimeIndex(t *testing.T) {
	root := filepath.Join(t.TempDir(), "bag")
	c, err := Create(root)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := c.CreateTopicOpts(&bagio.Connection{Topic: "/imu"}, TopicOptions{TimeWindow: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	times := make([]bagio.Time, 20)
	for i := range times {
		times[i] = bagio.Time{Sec: uint32(i)}
		if err := tw.Append(times[i], []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	topic, err := c2.Topic("/imu")
	if err != nil {
		t.Fatal(err)
	}
	v, err := topic.Index(obs.Span{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix := topic.TimeIndex(v)
	if ix.Window() != 5*time.Second || ix.WindowCount() != 4 {
		t.Errorf("derived index: window %v, %d windows; want 5s, 4", ix.Window(), ix.WindowCount())
	}
	if got := ix.QuerySorted(bagio.Time{Sec: 5}, bagio.Time{Sec: 9}); len(got) != 5 || got[0] != 5 || got[4] != 9 {
		t.Errorf("positions in [5s, 9s] = %v, want 5..9", got)
	}
	want := timeindex.Build(5*time.Second, times)
	start, end := bagio.Time{}, bagio.Time{Sec: 30}
	if !reflect.DeepEqual(ix.QuerySorted(start, end), want.QuerySorted(start, end)) {
		t.Error("derived index differs from one built over the appended stamps")
	}
}

// TestTopicTimeIndex: built once per handle from the view it is given,
// rebuilt when a later view is shorter (a part cut under the handle),
// and safe under concurrent first calls (run with -race).
func TestTopicTimeIndex(t *testing.T) {
	root, _ := buildSealedTopic(t)
	c, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	topic, err := c.Topic("/imu")
	if err != nil {
		t.Fatal(err)
	}
	v, err := topic.Index(obs.Span{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent first calls agree on one index.
	got := make([]*timeindex.Index, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = topic.TimeIndex(v)
		}(i)
	}
	wg.Wait()
	for _, ix := range got {
		if ix == nil || ix != got[0] {
			t.Fatalf("concurrent first calls returned different indexes: %p vs %p", ix, got[0])
		}
	}
	if ix := got[0]; ix.Window() != timeindex.DefaultWindow || ix.WindowCount() != 20 {
		t.Errorf("index: window %v, %d windows; want the default, 20", ix.Window(), ix.WindowCount())
	}

	// A view of the index cut short: positions stay inside it.
	cut := v.Slice(0, 10)
	ix := topic.TimeIndex(cut)
	if ix == got[0] {
		t.Fatal("a shorter view was served the index of the longer one")
	}
	if pos := ix.QuerySorted(bagio.Time{}, bagio.Time{Sec: 100}); len(pos) != 10 || pos[9] != 9 {
		t.Errorf("positions over the cut view = %v, want 0..9", pos)
	}
}
