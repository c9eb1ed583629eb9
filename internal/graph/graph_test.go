package graph

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bagio"
	"repro/internal/msgs"
	"repro/internal/rosbag"
)

func TestPublishSubscribe(t *testing.T) {
	g := New()
	camera, err := g.NewNode("camera")
	if err != nil {
		t.Fatal(err)
	}
	viewer, err := g.NewNode("viewer")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := camera.Advertise("/imu", "sensor_msgs/Imu")
	if err != nil {
		t.Fatal(err)
	}
	var got atomic.Int64
	var wg sync.WaitGroup
	wg.Add(10)
	sub, err := viewer.Subscribe("/imu", 32, func(m Message) {
		var imu msgs.Imu
		if err := imu.Unmarshal(m.Data); err != nil {
			t.Errorf("decode: %v", err)
		}
		got.Add(1)
		wg.Done()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		m := &msgs.Imu{Header: msgs.Header{Seq: uint32(i)}}
		if err := pub.Publish(bagio.Time{Sec: uint32(i)}, m); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	sub.Close()
	if got.Load() != 10 {
		t.Errorf("delivered %d messages", got.Load())
	}
}

func TestDecoupledPublisherSubscriber(t *testing.T) {
	g := New()
	n1, _ := g.NewNode("n1")
	// Publishing with no subscriber is fine.
	pub, err := n1.Advertise("/t", "sensor_msgs/Imu")
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(bagio.Time{}, &msgs.Imu{}); err != nil {
		t.Fatal(err)
	}
	// Subscribing before any publisher is fine too.
	n2, _ := g.NewNode("n2")
	sub, err := n2.Subscribe("/other", 4, func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	sub.Close()
}

func TestTypeConsistency(t *testing.T) {
	g := New()
	n, _ := g.NewNode("n")
	if _, err := n.Advertise("/t", "sensor_msgs/Imu"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Advertise("/t", "sensor_msgs/Image"); err == nil {
		t.Error("conflicting type accepted")
	}
	pub, _ := n.Advertise("/t", "sensor_msgs/Imu")
	if err := pub.Publish(bagio.Time{}, &msgs.Image{}); err == nil {
		t.Error("wrong-typed publish accepted")
	}
	if _, err := n.Advertise("", "x"); err == nil {
		t.Error("empty topic accepted")
	}
	if _, err := n.Subscribe("/t", 1, nil); err == nil {
		t.Error("nil callback accepted")
	}
}

func TestNodeRegistry(t *testing.T) {
	g := New()
	if _, err := g.NewNode("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.NewNode("a"); err == nil {
		t.Error("duplicate node accepted")
	}
	if _, err := g.NewNode(""); err == nil {
		t.Error("empty node name accepted")
	}
	if len(g.nodes) != 1 {
		t.Errorf("nodes = %v", g.nodes)
	}
	n, _ := g.NewNode("b")
	if _, err := n.Advertise("/x", "t/T"); err != nil {
		t.Fatal(err)
	}
	if got := g.Topics(); got["/x"] != "t/T" {
		t.Errorf("Topics = %v", got)
	}
	if n.Name() != "b" {
		t.Errorf("Name = %s", n.Name())
	}
}

func TestQueueOverflowDropsOldest(t *testing.T) {
	g := New()
	n, _ := g.NewNode("n")
	pub, _ := n.Advertise("/t", "sensor_msgs/Imu")

	block := make(chan struct{})
	var mu sync.Mutex
	var seen []uint32
	sub, err := n.Subscribe("/t", 2, func(m Message) {
		<-block
		var imu msgs.Imu
		if err := imu.Unmarshal(m.Data); err != nil {
			t.Errorf("decode: %v", err)
			return
		}
		mu.Lock()
		seen = append(seen, imu.Header.Seq)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Publish more than queue+1 while the callback blocks.
	for i := 0; i < 10; i++ {
		if err := pub.Publish(bagio.Time{Sec: uint32(i)}, &msgs.Imu{Header: msgs.Header{Seq: uint32(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	close(block)
	sub.Close()
	if sub.Dropped() == 0 {
		t.Error("no drops recorded despite overflow")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 {
		t.Fatal("nothing delivered")
	}
	// The newest message must have survived (drop-oldest).
	if seen[len(seen)-1] != 9 {
		t.Errorf("latest delivered seq = %d, want 9", seen[len(seen)-1])
	}
}

func TestShutdownClosesSubscribers(t *testing.T) {
	g := New()
	n, _ := g.NewNode("n")
	pub, _ := n.Advertise("/t", "sensor_msgs/Imu")
	var count atomic.Int64
	if _, err := n.Subscribe("/t", 8, func(Message) { count.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(bagio.Time{Sec: 1}, &msgs.Imu{}); err != nil {
		t.Fatal(err)
	}
	g.Shutdown()
	g.Shutdown() // idempotent
	if _, err := g.NewNode("late"); err == nil {
		t.Error("NewNode after Shutdown accepted")
	}
	if _, err := n.Advertise("/new", "x/Y"); err == nil {
		t.Error("Advertise after Shutdown accepted")
	}
}

// memWS is a minimal in-memory WriteSeeker for recorder tests.
type memWS struct {
	buf []byte
	pos int64
}

func (m *memWS) Write(p []byte) (int, error) {
	if need := m.pos + int64(len(p)); need > int64(len(m.buf)) {
		grown := make([]byte, need)
		copy(grown, m.buf)
		m.buf = grown
	}
	copy(m.buf[m.pos:], p)
	m.pos += int64(len(p))
	return len(p), nil
}

func (m *memWS) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case 0:
		m.pos = off
	case 1:
		m.pos += off
	case 2:
		m.pos = int64(len(m.buf)) + off
	}
	return m.pos, nil
}

func (m *memWS) ReadAt(p []byte, off int64) (int, error) {
	n := copy(p, m.buf[off:])
	return n, nil
}

func TestRecorderEndToEnd(t *testing.T) {
	g := New()
	sensors, _ := g.NewNode("sensors")
	imuPub, err := sensors.Advertise("/imu", "sensor_msgs/Imu")
	if err != nil {
		t.Fatal(err)
	}
	tfPub, err := sensors.Advertise("/tf", "tf2_msgs/TFMessage")
	if err != nil {
		t.Fatal(err)
	}
	otherPub, err := sensors.Advertise("/ignored", "sensor_msgs/Imu")
	if err != nil {
		t.Fatal(err)
	}

	ws := &memWS{}
	w, err := rosbag.NewWriter(ws, rosbag.WriterOptions{ChunkThreshold: 2048})
	if err != nil {
		t.Fatal(err)
	}
	// rosbag record -O sample.bag /imu /tf
	rec, err := NewRecorder(g, "recorder", w, "/imu", "/tf")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		ts := bagio.Time{Sec: uint32(100 + i)}
		if err := imuPub.Publish(ts, &msgs.Imu{Header: msgs.Header{Seq: uint32(i), Stamp: ts}}); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			tf := &msgs.TFMessage{Transforms: []msgs.TransformStamped{{Header: msgs.Header{Stamp: ts}}}}
			if err := tfPub.Publish(ts, tf); err != nil {
				t.Fatal(err)
			}
		}
		if err := otherPub.Publish(ts, &msgs.Imu{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Stop(); err != nil {
		t.Fatal(err)
	}
	if rec.Recorded() != 40 {
		t.Errorf("Recorded = %d, want 40", rec.Recorded())
	}
	if rec.Dropped() != 0 {
		t.Errorf("Dropped = %d", rec.Dropped())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The recorded bag parses with the stock reader.
	r, err := rosbag.OpenReader(ws, int64(len(ws.buf)))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.MessageCount(); got != 40 {
		t.Errorf("bag has %d messages", got)
	}
	if got := r.MessageCount("/imu"); got != 30 {
		t.Errorf("imu count = %d", got)
	}
	topics := r.Topics()
	if len(topics) != 2 {
		t.Errorf("topics = %v (the /ignored topic must not be recorded)", topics)
	}
}

func TestRecorderValidation(t *testing.T) {
	g := New()
	ws := &memWS{}
	w, err := rosbag.NewWriter(ws, rosbag.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRecorder(g, "rec", w); err == nil {
		t.Error("recorder with no topics accepted")
	}
	if _, err := NewRecorder(g, "", w, "/t"); err == nil {
		t.Error("recorder with empty node name accepted")
	}
}

func TestLatchedTopicRedeliversToLateSubscriber(t *testing.T) {
	g := New()
	n, _ := g.NewNode("mapper")
	pub, err := n.advertise("/map", "sensor_msgs/Image", true)
	if err != nil {
		t.Fatal(err)
	}
	// Publish before anyone subscribes.
	want := &msgs.Image{Header: msgs.Header{Seq: 7}, Height: 2, Width: 2, Step: 6, Data: make([]byte, 12)}
	if err := pub.Publish(bagio.Time{Sec: 100}, want); err != nil {
		t.Fatal(err)
	}
	got := make(chan graph_Seq, 1)
	sub, err := n.Subscribe("/map", 4, func(m Message) {
		var img msgs.Image
		if err := img.Unmarshal(m.Data); err != nil {
			t.Errorf("decode latched: %v", err)
			return
		}
		select {
		case got <- graph_Seq(img.Header.Seq):
		default:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if seq := <-got; seq != 7 {
		t.Errorf("latched seq = %d, want 7", seq)
	}
	// Non-latched topics do not redeliver.
	plain, _ := n.Advertise("/plain", "sensor_msgs/Imu")
	if err := plain.Publish(bagio.Time{Sec: 1}, &msgs.Imu{}); err != nil {
		t.Fatal(err)
	}
	var count atomic.Int64
	s2, err := n.Subscribe("/plain", 4, func(Message) { count.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if count.Load() != 0 {
		t.Error("non-latched topic redelivered to late subscriber")
	}
}

type graph_Seq uint32
