package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bagio"
	"repro/internal/container"
	"repro/internal/faultfs"
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
// query started a third of the way into a recording delivers, per topic
// and byte for byte, what a post-hoc OrderTime query with the same spec
// delivers of the completed bag — unfiltered (every message: the sealed
// prefix plus every post-subscription write, no duplicates, no gaps),
// strided (the stride phase the snapshot hands the tail, which plans per
// batch) and windowed across a rotation and the snapshot cut.
func TestFollowMidRecordingEquivalence(t *testing.T) {
	base := int64(3_000_000_000) * 1e9
	at := func(i int) bagio.Time { return bagio.TimeFromNanos(base + int64(i)*1e7) }
	const total = 400 // 10 ms apart: a 500 ms segment holds 50, the cut falls at 133
	for _, c := range []struct {
		name string
		spec QuerySpec
		n    int // messages delivered
	}{
		{"all", QuerySpec{}, total},
		{"stride 3", QuerySpec{Stride: 3}, 135}, // 45 of each topic's 134, 133 and 133
		{"window", QuerySpec{Start: at(110), End: at(260)}, 151},
	} {
		t.Run(c.name, func(t *testing.T) {
			checkFollowMidRecording(t, c.spec, total, c.n, at)
		})
	}
}

func checkFollowMidRecording(t *testing.T, spec QuerySpec, total, n int, at func(int) bagio.Time) {
	b := newBORA(t)
	rec, err := b.CreateLiveBag("live", 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	topics := []string{"/imu", "/tf", "/camera"}

	// Prefix: a third of the messages exist before the follower starts.
	write := func(i int) {
		liveWrite(t, rec, topics[i%len(topics)], at(i), i)
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
	follow := spec
	follow.Follow = true
	go func() {
		first := true
		done <- bag.Query(follow, func(m MessageRef) error {
			if first {
				first = false
				close(started)
			}
			got = append(got, rcv{m.Conn.Topic, m.Time, append([]byte(nil), m.Data...)})
			return nil
		})
	}()
	select {
	case <-started:
	case err := <-done:
		t.Fatalf("follow ended before its first message: %v", err)
	}
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

	// Post-hoc: reopen the completed bag and compare per-topic streams
	// byte for byte.
	sealed, err := b.Open("live")
	if err != nil {
		t.Fatal(err)
	}
	var want []rcv
	posthoc := spec
	posthoc.Order = OrderTime
	err = sealed.Query(posthoc, func(m MessageRef) error {
		want = append(want, rcv{m.Conn.Topic, m.Time, append([]byte(nil), m.Data...)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n || len(want) != n {
		t.Fatalf("follow delivered %d messages, post-hoc query %d, want %d", len(got), len(want), n)
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

// TestRemoveRefusesRecordingBag: Remove refuses a bag a recorder in this
// process still holds — deleting it would swallow every later write and
// leave the name registered — and removes it once the recorder closes.
func TestRemoveRefusesRecordingBag(t *testing.T) {
	b := newBORA(t)
	rec, err := b.CreateLiveBag("live", 0)
	if err != nil {
		t.Fatal(err)
	}
	base := int64(3e18)
	liveWrite(t, rec, "/imu", bagio.TimeFromNanos(base), 0)
	if err := b.Remove("live"); err == nil {
		t.Fatal("Remove of a bag still recording in this process succeeded")
	}
	dir := filepath.Join(b.Root(), "live")
	if _, err := os.Stat(filepath.Join(dir, LiveMetaFileName)); err != nil {
		t.Fatalf("refused Remove touched the bag: %v", err)
	}
	liveWrite(t, rec, "/imu", bagio.TimeFromNanos(base+1e6), 1)
	if _, err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	bag, err := b.Open("live")
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, func(fn func(MessageRef) error) error { return bag.Query(QuerySpec{}, fn) })
	want := []queryRec{
		{"/imu", bagio.TimeFromNanos(base), "/imu#000000"},
		{"/imu", bagio.TimeFromNanos(base + 1e6), "/imu#000001"},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("sealed bag holds %v, want %v", got, want)
	}
	if err := b.Remove("live"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("bag directory survives Remove after Close: %v", err)
	}
}

// TestLiveJournalBounded pins the Follow journal's memory: a live
// recording journals only while a follower is subscribed, and keeps
// only what the slowest follower has not drained yet — without losing
// or repeating a message for a follower that joins mid-recording.
func TestLiveJournalBounded(t *testing.T) {
	b := newBORA(t)
	rec, err := b.CreateLiveBag("live", 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	base := int64(3_000_000_000) * 1e9
	topics := []string{"/imu", "/tf", "/camera"}
	n := 0
	write := func(k int) {
		for ; k > 0; k-- {
			liveWrite(t, rec, topics[n%len(topics)], bagio.TimeFromNanos(base+int64(n)*1e6), n)
			n++
		}
	}
	journalLen := func() int {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return len(rec.journal)
	}

	const prefix, batch = 3000, 64
	write(prefix)
	if l := journalLen(); l != 0 {
		t.Fatalf("no follower: journal holds %d entries, want 0", l)
	}

	bag, err := b.Open("live")
	if err != nil {
		t.Fatal(err)
	}
	// A tail counts deliveries per message index; gate, when non-nil,
	// holds its first delivery until closed.
	type tail struct {
		mu        sync.Mutex
		seen      map[int]int
		delivered int
		started   chan struct{}
		done      chan error
	}
	follow := func(gate chan struct{}) *tail {
		tl := &tail{seen: map[int]int{}, started: make(chan struct{}), done: make(chan error, 1)}
		go func() {
			first := true
			tl.done <- bag.Query(QuerySpec{Follow: true}, func(m MessageRef) error {
				if first {
					first = false
					close(tl.started)
					if gate != nil {
						<-gate
					}
				}
				var i int
				if _, err := fmt.Sscanf(string(m.Data[bytes.IndexByte(m.Data, '#')+1:]), "%d", &i); err != nil {
					return err
				}
				tl.mu.Lock()
				tl.seen[i]++
				tl.delivered++
				tl.mu.Unlock()
				return nil
			})
		}()
		return tl
	}
	awaitAll := func(tails ...*tail) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for _, tl := range tails {
			for {
				tl.mu.Lock()
				d := tl.delivered
				tl.mu.Unlock()
				if d == n {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("follower delivered %d of %d messages", d, n)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
	round := func(tails ...*tail) {
		t.Helper()
		write(batch)
		if l := journalLen(); l > batch+n/2 {
			t.Fatalf("after %d messages: journal holds %d entries, want <= %d", n, l, batch+n/2)
		}
		awaitAll(tails...)
	}

	// A follower that keeps up bounds the journal by one batch.
	a := follow(nil)
	awaitAll(a)
	for i := 0; i < 20; i++ {
		round(a)
	}
	// A second follower joins mid-recording and lags: the journal keeps
	// its undrained suffix while the first drains past it.
	gate := make(chan struct{})
	late := follow(gate)
	<-late.started
	for i := 0; i < 10; i++ {
		round(a)
	}
	close(gate)
	for i := 0; i < 20; i++ {
		round(a, late)
	}
	if err := rec.Seal(); err != nil {
		t.Fatal(err)
	}
	for name, tl := range map[string]*tail{"first": a, "late": late} {
		if err := <-tl.done; err != nil {
			t.Fatalf("%s follower: %v", name, err)
		}
		for i := 0; i < n; i++ {
			if c := tl.seen[i]; c != 1 {
				t.Fatalf("%s follower saw message %d %d times, want once", name, i, c)
			}
		}
	}
	if l := journalLen(); l != 0 {
		t.Errorf("after every follower left: journal holds %d entries, want 0", l)
	}
}

// TestFollowFlushFailureSurfaces: the recorder writes buffered appends
// out when a follower wakes for them. When that deferred data write
// fails, the failure reaches everyone and blocks no one: the Follow
// query returns the injected cause, a snapshot query fails with it, and
// the recorder's next write to the topic fails too.
func TestFollowFlushFailureSurfaces(t *testing.T) {
	ts := bagio.TimeFromNanos(3_000_000_000 * 1e9)
	// run subscribes a follower to an empty live bag, waits for it to
	// park, then writes one message; the follower's wake-up flushes it.
	// It returns the injector, the recorder, the bag and the Follow
	// query's outcome.
	run := func(plan faultfs.Plan) (*faultfs.Injector, *Recorder, *Bag, chan error) {
		in := faultfs.NewInjector(faultfs.OS, plan)
		b, err := New(filepath.Join(t.TempDir(), "backend"), Options{FS: in})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := b.CreateLiveBag("live", time.Second)
		if err != nil {
			t.Fatal(err)
		}
		bag, err := b.Open("live")
		if err != nil {
			t.Fatal(err)
		}
		parked, done := make(chan struct{}, 1), make(chan error, 1)
		idle := func() error {
			select {
			case parked <- struct{}{}:
			default:
			}
			return nil
		}
		go func() {
			done <- bag.Execute(context.Background(), QuerySpec{Follow: true}, Exec{Idle: idle}, func(MessageRef) error { return nil })
		}()
		select {
		case <-parked:
		case err := <-done:
			t.Fatalf("Follow returned %v before it parked", err)
		}
		liveWrite(t, rec, "/imu", ts, 0)
		return in, rec, bag, done
	}
	await := func(done chan error) error {
		t.Helper()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("the Follow query hangs")
			return nil
		}
	}

	clean, rec, _, done := run(faultfs.Plan{})
	if err := rec.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := await(done); err != nil {
		t.Fatalf("clean run: Follow = %v", err)
	}
	var at int64
	for _, line := range clean.Trace() {
		f := strings.Fields(line) // "N op path"
		if f[1] == "write" && filepath.Base(f[2]) == container.DataFileName {
			at, _ = strconv.ParseInt(f[0], 10, 64)
			break
		}
	}
	if at == 0 {
		t.Fatal("the clean run wrote no data")
	}

	_, rec, bag, done := run(faultfs.Plan{FailAt: at})
	if err := await(done); !errors.Is(err, faultfs.ErrInjected) {
		t.Errorf("Follow = %v, want the injected data-write failure", err)
	}
	if err := bag.Query(QuerySpec{}, func(MessageRef) error { return nil }); !errors.Is(err, faultfs.ErrInjected) {
		t.Errorf("snapshot query = %v, want the injected data-write failure", err)
	}
	if err := rec.WriteRaw("/imu", "sensor_msgs/Imu", ts, []byte("next")); !errors.Is(err, faultfs.ErrInjected) {
		t.Errorf("next write = %v, want the injected data-write failure", err)
	}
	if err := rec.Seal(); !errors.Is(err, faultfs.ErrInjected) {
		t.Errorf("Seal = %v, want the injected data-write failure", err)
	}
}

// TestFollowTailReleasesRotatedParts: rotation only moves forward, so a
// Follow closes the part a topic left once it has delivered from it.
// Across hundreds of rotations the follower holds open at most one part
// per topic, not one per segment — a tail that kept every part it
// touched open would hold 600 descriptors here, and a daemon tailing a
// recording for a day would run out of them.
func TestFollowTailReleasesRotatedParts(t *testing.T) {
	b := newBORA(t)
	rec, err := b.CreateLiveBag("live", 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// openFiles counts the descriptors open under the bag, with no
	// barrier in flight: a pending commit's barrier opens every file it
	// syncs, so the count finishes it first.
	openFiles := func() int {
		rec.mu.Lock()
		err := rec.finishLocked()
		rec.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		n := filesOpenUnder(filepath.Join(b.Root(), "live"))
		if n < 0 {
			t.Skip("cannot count open descriptors")
		}
		return n
	}
	base := int64(3_000_000_000) * 1e9
	topics := []string{"/imu", "/tf", "/camera"}
	n := 0
	var written, delivered atomic.Int64 // written is set before the writes it counts
	write := func(steps int) {
		written.Add(int64(steps * len(topics)))
		for ; steps > 0; steps-- { // one step per 10 ms segment, every topic in each
			for _, topic := range topics {
				liveWrite(t, rec, topic, bagio.TimeFromNanos(base+int64(n/len(topics))*1e7), n)
				n++
			}
		}
	}
	write(2)
	bag, err := b.Open("live")
	if err != nil {
		t.Fatal(err)
	}
	parked, done := make(chan struct{}, 1), make(chan error, 1)
	idle := func() error {
		if delivered.Load() == written.Load() {
			select {
			case parked <- struct{}{}:
			default:
			}
		}
		return nil
	}
	await := func() {
		t.Helper()
		select {
		case <-parked:
		case err := <-done:
			t.Fatalf("Follow returned %v before it parked", err)
		case <-time.After(10 * time.Second):
			t.Fatalf("the follower delivered %d of %d messages", delivered.Load(), written.Load())
		}
	}
	before := openFiles()
	go func() {
		done <- bag.Execute(context.Background(), QuerySpec{Follow: true}, Exec{Idle: idle}, func(MessageRef) error {
			delivered.Add(1)
			return nil
		})
	}()
	await()
	const rotations = 200
	for i := 0; i < rotations; i += 10 {
		write(10)
		await()
	}
	held := openFiles() - before
	t.Logf("after %d rotations: %d segments, %d more descriptors", rotations, rec.Segments(), held)
	if held > len(topics)+2 {
		t.Errorf("after %d rotations the follower holds %d more descriptors, want at most %d (one part per topic)", rotations, held, len(topics)+2)
	}
	if err := rec.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if int(delivered.Load()) != n {
		t.Errorf("follow delivered %d messages, want %d", delivered.Load(), n)
	}
}
