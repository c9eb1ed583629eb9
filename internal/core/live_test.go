package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/bagio"
	"repro/internal/msgs"
	"repro/internal/rosbag"
)

// liveWrite appends one raw IMU-typed message with a payload derived
// from (topic, i) so byte-level comparisons catch any mixup.
func liveWrite(t *testing.T, rec *Recorder, topic string, ts bagio.Time, i int) {
	t.Helper()
	if err := rec.WriteRaw(topic, "sensor_msgs/Imu", ts, []byte(fmt.Sprintf("%s#%06d", topic, i))); err != nil {
		t.Fatal(err)
	}
}

func TestLiveBagRotationAndReopen(t *testing.T) {
	b := newBORA(t)
	// A one-second window over timestamps spanning five seconds forces
	// several rotations.
	rec, err := b.CreateLiveBag("live", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateLiveBag("live", time.Second); err == nil {
		t.Error("duplicate CreateLiveBag accepted")
	}
	base := int64(3_000_000_000) * 1e9
	for i := 0; i < 50; i++ {
		ts := bagio.TimeFromNanos(base + int64(i)*1e8) // 10 Hz over 5 s
		liveWrite(t, rec, "/imu", ts, i)
		if i%5 == 0 {
			liveWrite(t, rec, "/tf", ts, i)
		}
	}
	if got := rec.Segments(); got < 4 {
		t.Errorf("Segments = %d, want >= 4 after 5 s at a 1 s window", got)
	}
	bag, err := rec.Close()
	if err != nil {
		t.Fatal(err)
	}
	if bag.Generation() == 0 {
		t.Error("sealed live bag has zero generation")
	}
	// The sealed bag reopens cold and answers queries across segments.
	reopened, err := b.Open("live")
	if err != nil {
		t.Fatal(err)
	}
	for _, bg := range []*Bag{bag, reopened} {
		n, err := bg.MessageCount()
		if err != nil {
			t.Fatal(err)
		}
		if n != 60 {
			t.Errorf("MessageCount = %d, want 60", n)
		}
		var prev bagio.Time
		count := 0
		err = bg.Query(QuerySpec{Order: OrderTime}, func(m MessageRef) error {
			if m.Time.Before(prev) {
				t.Errorf("chrono order violated at %v", m.Time)
			}
			prev = m.Time
			count++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if count != 60 {
			t.Errorf("chrono count = %d, want 60", count)
		}
	}
	// Time-bounded query across a segment boundary.
	var n int
	err = reopened.Query(QuerySpec{
		Topics: []string{"/imu"},
		Start:  bagio.TimeFromNanos(base + 1e9),
		End:    bagio.TimeFromNanos(base + 3e9),
	}, func(MessageRef) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 21 {
		t.Errorf("windowed count = %d, want 21", n)
	}
}

// TestFollowMidRecordingEquivalence is the acceptance pin: a Follow
// query started mid-recording delivers every message — the sealed
// prefix plus every post-subscription write, no duplicates, no gaps —
// and per topic the byte stream is identical to a post-hoc query of the
// completed bag.
func TestFollowMidRecordingEquivalence(t *testing.T) {
	b := newBORA(t)
	rec, err := b.CreateLiveBag("live", 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	base := int64(3_000_000_000) * 1e9
	const total = 400
	topics := []string{"/imu", "/tf", "/camera"}

	// Prefix: a third of the messages exist before the follower starts.
	write := func(i int) {
		ts := bagio.TimeFromNanos(base + int64(i)*1e7)
		liveWrite(t, rec, topics[i%len(topics)], ts, i)
	}
	for i := 0; i < total/3; i++ {
		write(i)
	}

	bag, err := b.Open("live")
	if err != nil {
		t.Fatal(err)
	}
	if !bag.LiveWired() {
		t.Fatal("mid-recording open is not live-wired")
	}
	type rcv struct {
		topic string
		time  bagio.Time
		data  []byte
	}
	var (
		got     []rcv
		started = make(chan struct{})
		done    = make(chan error, 1)
	)
	go func() {
		first := true
		done <- bag.Query(QuerySpec{Follow: true}, func(m MessageRef) error {
			if first {
				first = false
				close(started)
			}
			got = append(got, rcv{m.Conn.Topic, m.Time, append([]byte(nil), m.Data...)})
			return nil
		})
	}()
	<-started
	// Tail: the remaining messages land while the follower is draining.
	for i := total / 3; i < total; i++ {
		write(i)
	}
	if err := rec.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Fatalf("follow delivered %d messages, want %d", len(got), total)
	}

	// Post-hoc: reopen the completed bag and compare per-topic streams
	// byte for byte.
	sealed, err := b.Open("live")
	if err != nil {
		t.Fatal(err)
	}
	var want []rcv
	err = sealed.Query(QuerySpec{Order: OrderTime}, func(m MessageRef) error {
		want = append(want, rcv{m.Conn.Topic, m.Time, append([]byte(nil), m.Data...)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != total {
		t.Fatalf("post-hoc query delivered %d messages, want %d", len(want), total)
	}
	perTopic := func(rs []rcv) map[string][][]byte {
		m := map[string][][]byte{}
		for _, r := range rs {
			m[r.topic] = append(m[r.topic], r.data)
		}
		return m
	}
	gotT, wantT := perTopic(got), perTopic(want)
	for topic, ws := range wantT {
		gs := gotT[topic]
		if len(gs) != len(ws) {
			t.Fatalf("%s: follow delivered %d, post-hoc %d", topic, len(gs), len(ws))
		}
		for i := range ws {
			if !bytes.Equal(gs[i], ws[i]) {
				t.Fatalf("%s: message %d differs: %q vs %q", topic, i, gs[i], ws[i])
			}
		}
	}
}

func TestFollowTopicFilterAndNewTopics(t *testing.T) {
	b := newBORA(t)
	rec, err := b.CreateLiveBag("live", 0)
	if err != nil {
		t.Fatal(err)
	}
	base := int64(3_000_000_000) * 1e9
	liveWrite(t, rec, "/imu", bagio.TimeFromNanos(base), 0)

	bag, err := b.Open("live")
	if err != nil {
		t.Fatal(err)
	}
	// Follow a topic that does not exist yet: lenient resolution admits
	// it, and messages arrive once the recording introduces it.
	var lateTopic []string
	started := make(chan struct{})
	done := make(chan error, 1)
	var once sync.Once
	go func() {
		done <- bag.Query(QuerySpec{Topics: []string{"/late"}, Follow: true}, func(m MessageRef) error {
			lateTopic = append(lateTopic, string(m.Data))
			return nil
		})
	}()
	go func() {
		// The follower has no first message to signal on; give its
		// subscription a moment to attach before writing.
		once.Do(func() { time.Sleep(50 * time.Millisecond); close(started) })
	}()
	<-started
	liveWrite(t, rec, "/imu", bagio.TimeFromNanos(base+1e9), 1)
	liveWrite(t, rec, "/late", bagio.TimeFromNanos(base+2e9), 2)
	if err := rec.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(lateTopic) != 1 || lateTopic[0] != "/late#000002" {
		t.Errorf("late-topic follow delivered %q, want [/late#000002]", lateTopic)
	}
}

func TestFollowCancellation(t *testing.T) {
	b := newBORA(t)
	rec, err := b.CreateLiveBag("live", 0)
	if err != nil {
		t.Fatal(err)
	}
	liveWrite(t, rec, "/imu", bagio.TimeFromNanos(int64(3e18)), 0)
	bag, err := b.Open("live")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- bag.QueryContext(ctx, QuerySpec{Follow: true}, func(MessageRef) error { return nil })
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("follow returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follow did not observe cancellation")
	}
	if err := rec.Seal(); err != nil {
		t.Fatal(err)
	}
}

func TestFollowOnSealedBagTerminates(t *testing.T) {
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), 3)
	bag, _, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatal(err)
	}
	// Follow on a bag with no live tail degenerates to the chrono
	// snapshot and returns.
	var n int
	if err := bag.Query(QuerySpec{Follow: true}, func(MessageRef) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("follow on sealed bag delivered nothing")
	}
	// Follow + Workers is the one rejected combination.
	err = bag.Query(QuerySpec{Follow: true, Workers: 2}, func(MessageRef) error { return nil })
	if err == nil {
		t.Error("Follow+Workers accepted")
	}
}

// TestRecordSinkUnification drives the same message sequence through
// both RecordSink implementations — a classic bag writer and a live
// container recorder — and checks the BORA query results agree.
func TestRecordSinkUnification(t *testing.T) {
	b := newBORA(t)
	base := int64(3_000_000_000) * 1e9

	feed := func(sink RecordSink) {
		t.Helper()
		imu, err := sink.AddConnection("/imu", "sensor_msgs/Imu")
		if err != nil {
			t.Fatal(err)
		}
		tf, err := sink.AddConnection("/tf", "tf/tfMessage")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			ts := bagio.TimeFromNanos(base + int64(i)*1e8)
			m := &msgs.Imu{Header: msgs.Header{Seq: uint32(i), Stamp: ts}}
			data := m.Marshal(nil)
			conn := imu
			if i%3 == 0 {
				conn = tf
			}
			if err := sink.WriteMessage(conn, ts, data); err != nil {
				t.Fatal(err)
			}
		}
		if err := sink.Seal(); err != nil {
			t.Fatal(err)
		}
	}

	// Path A: classic bag file, then Duplicate.
	bagPath := filepath.Join(t.TempDir(), "sink.bag")
	w, f, err := rosbag.Create(bagPath, rosbag.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	feed(w)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	viaBag, _, err := b.Duplicate(bagPath, "via_bag")
	if err != nil {
		t.Fatal(err)
	}

	// Path B: straight into a live container.
	rec, err := b.CreateLiveBag("via_live", 0)
	if err != nil {
		t.Fatal(err)
	}
	feed(rec)
	viaLive, err := b.Open("via_live")
	if err != nil {
		t.Fatal(err)
	}

	read := func(bag *Bag) []string {
		var out []string
		if err := bag.Query(QuerySpec{Order: OrderTime}, func(m MessageRef) error {
			out = append(out, fmt.Sprintf("%s@%v:%x", m.Conn.Topic, m.Time, m.Data))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, c := read(viaBag), read(viaLive)
	if len(a) != 30 || len(c) != 30 {
		t.Fatalf("counts: bag %d, live %d, want 30", len(a), len(c))
	}
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("message %d differs:\n bag:  %s\n live: %s", i, a[i], c[i])
		}
	}
}

func TestProbeBag(t *testing.T) {
	b := newBORA(t)
	rec, err := b.CreateLiveBag("live", 0)
	if err != nil {
		t.Fatal(err)
	}
	liveWrite(t, rec, "/imu", bagio.TimeFromNanos(int64(3e18)), 0)
	gen, recording, err := b.ProbeBag("live")
	if err != nil || !recording || gen != 0 {
		t.Errorf("mid-recording probe = (%d, %v, %v), want (0, true, nil)", gen, recording, err)
	}
	bag, err := rec.Close()
	if err != nil {
		t.Fatal(err)
	}
	gen, recording, err = b.ProbeBag("live")
	if err != nil || recording || gen == 0 {
		t.Errorf("sealed probe = (%d, %v, %v), want (gen, false, nil)", gen, recording, err)
	}
	if got := bag.Generation(); got != gen {
		t.Errorf("handle generation %d != probed %d", got, gen)
	}
	// Classic bags probe through the container meta.
	src := makeSourceBag(t, t.TempDir(), 2)
	classic, _, err := b.Duplicate(src, "classic")
	if err != nil {
		t.Fatal(err)
	}
	gen, recording, err = b.ProbeBag("classic")
	if err != nil || recording || gen != classic.Generation() {
		t.Errorf("classic probe = (%d, %v, %v), want (%d, false, nil)", gen, recording, err, classic.Generation())
	}
	if _, _, err := b.ProbeBag("missing"); err == nil {
		t.Error("probe of missing bag succeeded")
	}
}

func TestRepairLiveAfterCrash(t *testing.T) {
	b := newBORA(t)
	rec, err := b.CreateLiveBag("crashed", 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	base := int64(3_000_000_000) * 1e9
	for i := 0; i < 40; i++ {
		liveWrite(t, rec, "/imu", bagio.TimeFromNanos(base+int64(i)*1e8), i)
	}
	segs := rec.Segments()
	if segs < 2 {
		t.Fatalf("Segments = %d, want >= 2", segs)
	}
	// Simulate the crash: drop the in-process recorder without sealing.
	// The on-disk state is exactly what a killed process leaves behind.
	b.unregisterLive("crashed", rec)

	// Mid-recording without a live recorder: open refuses with a hint.
	if _, err := b.Open("crashed"); err == nil {
		t.Fatal("open of crashed live bag succeeded")
	}
	if _, err := b.Repair("crashed"); err != nil {
		t.Fatal(err)
	}
	bag, err := b.Open("crashed")
	if err != nil {
		t.Fatal(err)
	}
	n, err := bag.MessageCount()
	if err != nil {
		t.Fatal(err)
	}
	// Sealed segments are fully recovered; the building segment loses at
	// most its unflushed index tail.
	if n == 0 {
		t.Error("repair recovered nothing")
	}
	if n > 40 {
		t.Errorf("repair recovered %d messages, more than written", n)
	}
	var prev bagio.Time
	if err := bag.Query(QuerySpec{Order: OrderTime}, func(m MessageRef) error {
		if m.Time.Before(prev) {
			t.Errorf("order violated after repair at %v", m.Time)
		}
		prev = m.Time
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestLiveBagListAndRemove(t *testing.T) {
	b := newBORA(t)
	rec, err := b.CreateLiveBag("live", 0)
	if err != nil {
		t.Fatal(err)
	}
	liveWrite(t, rec, "/imu", bagio.TimeFromNanos(int64(3e18)), 0)
	names, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "live" {
		t.Errorf("List mid-recording = %v, want [live]", names)
	}
	if _, err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Remove("live"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(b.Root(), "live")); !os.IsNotExist(err) {
		t.Errorf("live bag directory survives Remove: %v", err)
	}
}
