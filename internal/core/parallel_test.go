package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bagio"
	"repro/internal/msgs"
	"repro/internal/rosbag"
)

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

// TestReadParallelFailFast is the regression test for the missing
// cancellation in readParallel: a poisoned topic must halt the run —
// topics not yet dispatched are skipped and in-flight streams stop at
// their next message — instead of every remaining topic being read in
// full while fn keeps firing.
func TestReadParallelFailFast(t *testing.T) {
	const topics, perTopic, workers = 12, 200, 4
	b := newBORA(t)
	src := makeManyTopicBag(t, t.TempDir(), topics, perTopic)
	bag, _, err := b.Duplicate(src, "many")
	if err != nil {
		t.Fatal(err)
	}
	poison := errors.New("poisoned topic")
	var delivered atomic.Int64
	// The other topics' streams wait at their first message until /t0's
	// failure is in: its part's cursor closes, and counts its seek, only
	// after the callback's error has returned, so however the host
	// schedules the streams released then, each must stop at its next
	// message.
	poisoned := make(chan struct{})
	seeks := bag.Stats().Seeks
	go func() {
		for deadline := time.Now().Add(10 * time.Second); bag.Stats().Seeks == seeks && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		close(poisoned)
	}()
	err = bag.Execute(context.Background(), QuerySpec{}, Exec{Workers: workers}, func(m MessageRef) error {
		if m.Conn.Topic == "/t0" {
			return poison
		}
		<-poisoned
		delivered.Add(1)
		return nil
	})
	if !errors.Is(err, poison) {
		t.Fatalf("err = %v, want the poison error", err)
	}
	// /t0 sorts first, so it is handed out first and fails while at most
	// the other workers-1 streams are in flight, each held at its first
	// message; no topic is handed out after the failure. Without
	// fail-fast every topic is read in full and delivered would be
	// (topics-1)*perTopic.
	if got := delivered.Load(); got > workers-1 {
		t.Errorf("delivered %d messages, want at most %d: one per stream in flight (fail-fast did not halt the streams)", got, workers-1)
	}
}

// TestReadParallelManyWorkersRace exercises the parallel read path with
// more than four workers and a concurrent callback; run with -race.
func TestReadParallelManyWorkersRace(t *testing.T) {
	const topics, perTopic = 9, 40
	b := newBORA(t)
	src := makeManyTopicBag(t, t.TempDir(), topics, perTopic)
	bag, _, err := b.Duplicate(src, "many")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	perTopicSeen := map[string]int{}
	err = bag.Execute(context.Background(), QuerySpec{}, Exec{Workers: 6}, func(m MessageRef) error {
		mu.Lock()
		perTopicSeen[m.Conn.Topic]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(perTopicSeen) != topics {
		t.Fatalf("saw %d topics, want %d", len(perTopicSeen), topics)
	}
	for tp, n := range perTopicSeen {
		if n != perTopic {
			t.Errorf("topic %s delivered %d messages, want %d", tp, n, perTopic)
		}
	}
}
