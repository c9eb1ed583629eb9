package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

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
	// The other topics' streams wait at their first message until /t0
	// has been poisoned, so how much they deliver afterwards does not
	// depend on which worker the host happened to run first.
	poisoned := make(chan struct{})
	err = bag.Query(QuerySpec{Workers: workers}, func(m MessageRef) error {
		if m.Conn.Topic == "/t0" {
			close(poisoned)
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
	// the other in-flight workers (plus the handful of topics handed out
	// before the stop flag is observed) are streaming. Without fail-fast
	// every topic is read in full and delivered would be
	// (topics-1)*perTopic.
	total := int64((topics - 1) * perTopic)
	if got := delivered.Load(); got >= total {
		t.Errorf("delivered %d messages, want < %d (fail-fast did not halt dispatch)", got, total)
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
	err = bag.Query(QuerySpec{Workers: 6}, func(m MessageRef) error {
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
