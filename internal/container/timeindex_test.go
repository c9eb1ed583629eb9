package container

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/bagio"
	"repro/internal/timeindex"
)

// TestTopicWriterPersistsTimeIndex: the writer builds the coarse index
// as it appends, with the window it was given, and Close persists it.
func TestTopicWriterPersistsTimeIndex(t *testing.T) {
	c := newTestContainer(t)
	tw, err := c.CreateTopicOpts(&bagio.Connection{Topic: "/imu"}, TopicOptions{TimeWindow: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := tw.Append(bagio.Time{Sec: uint32(i)}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	ix, err := readTimeIndex(tw.Topic().Dir())
	if err != nil {
		t.Fatal(err)
	}
	if ix.Window() != 5*time.Second || ix.WindowCount() != 4 {
		t.Errorf("persisted index: window %v, %d windows; want 5s, 4", ix.Window(), ix.WindowCount())
	}
	if got := ix.QuerySorted(bagio.Time{Sec: 5}, bagio.Time{Sec: 9}); len(got) != 5 || got[0] != 5 || got[4] != 9 {
		t.Errorf("positions in [5s, 9s] = %v, want 5..9", got)
	}
	// The closed writer's handle serves the index it built, no reload.
	if mem, err := tw.Topic().TimeIndex(20); err != nil || !bytes.Equal(mem.Marshal(), ix.Marshal()) {
		t.Errorf("writer handle's TimeIndex differs from the persisted file (%v)", err)
	}
}

// TestTopicTimeIndex: loaded once per handle, an error when the file is
// absent, corrupt or names a message the topic lacks, and safe under
// concurrent first calls (run with -race).
func TestTopicTimeIndex(t *testing.T) {
	root, dir := buildSealedTopic(t)
	path := filepath.Join(dir, TimeIdxFileName)
	persisted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const entries = 20 // buildSealedTopic's: what a query's view of the index holds
	open := func() *Topic {
		t.Helper()
		c, err := Open(root)
		if err != nil {
			t.Fatal(err)
		}
		topic, err := c.Topic("/imu")
		if err != nil {
			t.Fatal(err)
		}
		return topic
	}

	// Concurrent first calls agree on one index.
	topic := open()
	got := make([]*timeindex.Index, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ix, err := topic.TimeIndex(entries)
			if err != nil {
				t.Error(err)
			}
			got[i] = ix
		}(i)
	}
	wg.Wait()
	for _, ix := range got {
		if ix == nil || ix != got[0] {
			t.Fatalf("concurrent first calls returned different indexes: %p vs %p", ix, got[0])
		}
	}
	if !bytes.Equal(got[0].Marshal(), persisted) {
		t.Error("loaded index does not match the file")
	}

	// Loaded once: the handle never goes back to the file.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if ix, err := topic.TimeIndex(entries); err != nil || ix != got[0] {
		t.Errorf("second call reloaded (%p vs %p, %v)", ix, got[0], err)
	}

	// Absent file: an error, never a rebuild (RepairFS writes the file).
	if _, err := open().TimeIndex(entries); err == nil {
		t.Error("missing time index accepted")
	}

	// An index naming a message past the topic's entries: refused with
	// ErrIndexBeyondData, as fsck's orphan-time-windows.
	orphan := timeindex.New(0)
	orphan.Add(bagio.Time{Sec: 1}, 20)
	if err := os.WriteFile(path, orphan.Marshal(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := open().TimeIndex(entries); !errors.Is(err, ErrIndexBeyondData) {
		t.Errorf("orphan time index: err = %v, want ErrIndexBeyondData", err)
	}

	// Present but corrupt: an error, never a silent rebuild.
	if err := os.WriteFile(path, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := open().TimeIndex(entries); err == nil {
		t.Error("corrupt time index accepted")
	}
}
