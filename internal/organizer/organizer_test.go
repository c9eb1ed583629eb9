package organizer

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/bagio"
)

// memSink records appended messages for verification.
type memSink struct {
	mu      sync.Mutex
	topic   string
	times   []bagio.Time
	data    [][]byte
	closed  bool
	failOn  int // fail on the nth append (1-based); 0 = never
	appends int
}

func (s *memSink) Append(t bagio.Time, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appends++
	if s.failOn > 0 && s.appends == s.failOn {
		return fmt.Errorf("sink %s: injected failure", s.topic)
	}
	s.times = append(s.times, t)
	s.data = append(s.data, payload)
	return nil
}

func (s *memSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("double close")
	}
	s.closed = true
	return nil
}

func conn(topic string) *bagio.Connection {
	return &bagio.Connection{Topic: topic, Type: "x/Y"}
}

func TestDistributePreservesPerTopicOrder(t *testing.T) {
	sinks := map[string]*memSink{}
	d := New(func(c *bagio.Connection) (TopicSink, error) {
		s := &memSink{topic: c.Topic}
		sinks[c.Topic] = s
		return s, nil
	}, Options{Workers: 4, queueDepth: 8})

	topics := []string{"/a", "/b", "/c", "/d", "/e"}
	const perTopic = 200
	for i := 0; i < perTopic; i++ {
		for _, tp := range topics {
			if err := d.Dispatch(conn(tp), bagio.Time{Sec: uint32(i)}, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	stats, err := d.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != int64(perTopic*len(topics)) {
		t.Errorf("Messages = %d", stats.Messages)
	}
	if stats.Topics != len(topics) {
		t.Errorf("Topics = %d", stats.Topics)
	}
	for _, tp := range topics {
		s := sinks[tp]
		if len(s.times) != perTopic {
			t.Fatalf("topic %s received %d messages", tp, len(s.times))
		}
		for i := 1; i < len(s.times); i++ {
			if s.times[i].Before(s.times[i-1]) {
				t.Fatalf("topic %s: order violated at %d", tp, i)
			}
		}
		if !s.closed {
			t.Errorf("topic %s sink not closed", tp)
		}
		if stats.PerTopic[tp] != perTopic {
			t.Errorf("PerTopic[%s] = %d", tp, stats.PerTopic[tp])
		}
	}
}

func TestDispatchCopiesPayload(t *testing.T) {
	var sink *memSink
	d := New(func(c *bagio.Connection) (TopicSink, error) {
		sink = &memSink{topic: c.Topic}
		return sink, nil
	}, Options{Workers: 1})
	buf := []byte{1, 2, 3}
	if err := d.Dispatch(conn("/t"), bagio.Time{Sec: 1}, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99 // caller reuses its buffer
	if _, err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.data[0][0] != 1 {
		t.Error("payload was not copied before handoff")
	}
}

func TestSinkCreateFailurePropagates(t *testing.T) {
	d := New(func(c *bagio.Connection) (TopicSink, error) {
		return nil, errors.New("create boom")
	}, Options{Workers: 2})
	err := d.Dispatch(conn("/t"), bagio.Time{}, nil)
	if err == nil {
		t.Fatal("Dispatch should fail when sink creation fails")
	}
	if _, err := d.Close(); err == nil {
		t.Error("Close should report the create error")
	}
}

func TestAppendFailurePropagates(t *testing.T) {
	d := New(func(c *bagio.Connection) (TopicSink, error) {
		return &memSink{topic: c.Topic, failOn: 3}, nil
	}, Options{Workers: 1, queueDepth: 1})
	var sawErr bool
	for i := 0; i < 100; i++ {
		if err := d.Dispatch(conn("/t"), bagio.Time{Sec: uint32(i)}, []byte{1}); err != nil {
			sawErr = true
			break
		}
	}
	_, closeErr := d.Close()
	if !sawErr && closeErr == nil {
		t.Error("injected append failure was swallowed")
	}
}

func TestDispatchAfterClose(t *testing.T) {
	d := New(func(c *bagio.Connection) (TopicSink, error) {
		return &memSink{topic: c.Topic}, nil
	}, Options{})
	if _, err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Dispatch(conn("/t"), bagio.Time{}, nil); err == nil {
		t.Error("Dispatch after Close should fail")
	}
	if _, err := d.Close(); err == nil {
		t.Error("double Close should report an error")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.fill()
	if o.Workers < 1 {
		t.Errorf("Workers = %d", o.Workers)
	}
	if o.queueDepth < 1 {
		t.Errorf("queueDepth = %d", o.queueDepth)
	}
}

// TestStatsCountAppendsNotDispatches is the regression test for the
// stats overcount: after a sink failure flips the workers into drain
// mode, Close must report only the messages actually appended to sinks,
// with everything else in Dropped — not every dispatched item.
func TestStatsCountAppendsNotDispatches(t *testing.T) {
	sinks := map[string]*memSink{}
	d := New(func(c *bagio.Connection) (TopicSink, error) {
		s := &memSink{topic: c.Topic, failOn: 5}
		sinks[c.Topic] = s
		return s, nil
	}, Options{Workers: 4, queueDepth: 4})

	topics := []string{"/a", "/b", "/c", "/d", "/e", "/f"}
	var dispatched int64
	for i := 0; i < 100; i++ {
		for _, tp := range topics {
			if err := d.Dispatch(conn(tp), bagio.Time{Sec: uint32(i)}, []byte{byte(i), byte(i >> 8)}); err != nil {
				goto closed
			}
			dispatched++
		}
	}
closed:
	stats, err := d.Close()
	if err == nil {
		t.Fatal("Close should report the injected append failure")
	}
	var appended, appendedBytes int64
	for _, s := range sinks {
		appended += int64(len(s.times))
		for _, p := range s.data {
			appendedBytes += int64(len(p))
		}
	}
	if stats.Messages != appended {
		t.Errorf("stats.Messages = %d, want %d (appends that actually landed)", stats.Messages, appended)
	}
	if stats.Bytes != appendedBytes {
		t.Errorf("stats.Bytes = %d, want %d", stats.Bytes, appendedBytes)
	}
	if stats.Messages+stats.Dropped != dispatched {
		t.Errorf("Messages(%d) + Dropped(%d) != dispatched(%d)", stats.Messages, stats.Dropped, dispatched)
	}
	if stats.Dropped == 0 {
		t.Error("expected drained items to be counted as Dropped")
	}
	var perTopicSum int64
	for tp, n := range stats.PerTopic {
		if want := int64(len(sinks[tp].times)); n != want {
			t.Errorf("PerTopic[%s] = %d, want %d", tp, n, want)
		}
		perTopicSum += n
	}
	if perTopicSum != stats.Messages {
		t.Errorf("sum(PerTopic) = %d, want %d", perTopicSum, stats.Messages)
	}
}

// TestDistributeRace exercises the dispatch/append/drain paths with ≥4
// workers and an injected mid-run failure; run with -race.
func TestDistributeRace(t *testing.T) {
	d := New(func(c *bagio.Connection) (TopicSink, error) {
		s := &memSink{topic: c.Topic}
		if c.Topic == "/poison" {
			s.failOn = 50
		}
		return s, nil
	}, Options{Workers: 6, queueDepth: 2})
	topics := []string{"/a", "/b", "/c", "/d", "/e", "/f", "/g", "/poison"}
	for i := 0; i < 500; i++ {
		for _, tp := range topics {
			if err := d.Dispatch(conn(tp), bagio.Time{Sec: uint32(i)}, []byte{byte(i)}); err != nil {
				goto done
			}
		}
	}
done:
	if _, err := d.Close(); err == nil {
		t.Fatal("Close should report the injected failure")
	}
}

func TestManyTopicsShardAcrossWorkers(t *testing.T) {
	var mu sync.Mutex
	created := 0
	d := New(func(c *bagio.Connection) (TopicSink, error) {
		mu.Lock()
		created++
		mu.Unlock()
		return &memSink{topic: c.Topic}, nil
	}, Options{Workers: 3})
	for i := 0; i < 50; i++ {
		tp := fmt.Sprintf("/topic%d", i)
		if err := d.Dispatch(conn(tp), bagio.Time{Sec: uint32(i)}, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := d.Close()
	if err != nil {
		t.Fatal(err)
	}
	if created != 50 || stats.Topics != 50 {
		t.Errorf("created=%d stats.Topics=%d", created, stats.Topics)
	}
}
