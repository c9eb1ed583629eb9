package core

import (
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/bagio"
	"repro/internal/msgs"
)

func TestRecorderOnlineMode(t *testing.T) {
	b := newBORA(t)
	rec, err := b.CreateBag("live")
	if err != nil {
		t.Fatal(err)
	}
	base := int64(2_000_000_000) * 1e9
	for i := 0; i < 50; i++ {
		ts := bagio.TimeFromNanos(base + int64(i)*1e8)
		if err := rec.WriteMsg("/imu", ts, &msgs.Imu{Header: msgs.Header{Seq: uint32(i), Stamp: ts}}); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			tf := &msgs.TFMessage{Transforms: []msgs.TransformStamped{{Header: msgs.Header{Stamp: ts}}}}
			if err := rec.WriteMsg("/tf", ts, tf); err != nil {
				t.Fatal(err)
			}
		}
	}
	if rec.MessageCount() != 60 {
		t.Errorf("MessageCount = %d", rec.MessageCount())
	}
	if got := rec.Topics(); len(got) != 2 || got[0] != "/imu" {
		t.Errorf("Topics = %v", got)
	}
	bag, err := rec.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Close(); err == nil {
		t.Error("double Close accepted")
	}
	if err := rec.WriteMsg("/imu", bagio.Time{}, &msgs.Imu{}); err == nil {
		t.Error("write after Close accepted")
	}

	// The recorded bag answers queries like a duplicated one, including
	// window-bounded time queries from the online-built time index.
	if n, err := bag.MessageCount(); err != nil || n != 60 {
		t.Errorf("bag MessageCount = %d, %v", n, err)
	}
	start := bagio.TimeFromNanos(base + 1e9)
	end := bagio.TimeFromNanos(base + 2e9)
	var count int
	if err := bag.Query(QuerySpec{Topics: []string{"/imu"}, Start: start, End: end}, func(m MessageRef) error {
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 11 { // samples at 1.0s..2.0s inclusive at 10 Hz
		t.Errorf("windowed count = %d, want 11", count)
	}
	// Connections carry md5/definition filled from msgdef.
	conns, err := bag.Connections()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range conns {
		if c.MD5Sum == "" || c.Def == "" {
			t.Errorf("connection %s missing metadata", c.Topic)
		}
	}
}

func TestRecorderConcurrentTopics(t *testing.T) {
	b := newBORA(t)
	rec, err := b.CreateBag("conc")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	topics := []string{"/a", "/b", "/c", "/d"}
	for _, topic := range topics {
		wg.Add(1)
		go func(topic string) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ts := bagio.Time{Sec: uint32(1000 + i)}
				m := &msgs.TransformStamped{Header: msgs.Header{Seq: uint32(i), Stamp: ts}}
				if err := rec.WriteMsg(topic, ts, m); err != nil {
					t.Errorf("%s: %v", topic, err)
					return
				}
			}
		}(topic)
	}
	wg.Wait()
	bag, err := rec.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := bag.MessageCount(); n != 400 {
		t.Errorf("MessageCount = %d", n)
	}
	for _, topic := range topics {
		tp, err := bag.Container().Topic(topic)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := tp.Entries()
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(entries); i++ {
			if entries[i].Time.Before(entries[i-1].Time) {
				t.Errorf("%s: entries out of order at %d", topic, i)
			}
		}
	}
}

func TestCreateBagDuplicateName(t *testing.T) {
	b := newBORA(t)
	if _, err := b.CreateBag("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateBag("x"); err == nil {
		t.Error("duplicate CreateBag accepted")
	}
}

func TestRebagByTopic(t *testing.T) {
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), 6)
	bag, _, err := b.Duplicate(src, "full")
	if err != nil {
		t.Fatal(err)
	}
	sub, kept, err := b.Rebag(bag, "imu_only", QuerySpec{Topics: []string{"/imu"}})
	if err != nil {
		t.Fatal(err)
	}
	if kept != 60 {
		t.Errorf("kept = %d, want 60", kept)
	}
	if got := sub.Topics(); len(got) != 1 || got[0] != "/imu" {
		t.Errorf("Topics = %v", got)
	}
	if n, _ := sub.MessageCount(); n != 60 {
		t.Errorf("MessageCount = %d", n)
	}
}

func TestRebagTimeWindowStride(t *testing.T) {
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), 10)
	bag, _, err := b.Duplicate(src, "full")
	if err != nil {
		t.Fatal(err)
	}
	base := int64(1_000_000_000_000_000_000)
	spec := QuerySpec{
		Topics: []string{"/imu"},
		Start:  bagio.TimeFromNanos(base + 2e9),
		End:    bagio.TimeFromNanos(base + 5e9 - 1),
		Stride: 2,
	}
	sub, kept, err := b.Rebag(bag, "window_half", spec)
	if err != nil {
		t.Fatal(err)
	}
	if kept != 15 { // 3 seconds × 10 Hz = 30 in window, every other one
		t.Errorf("kept = %d, want 15", kept)
	}
	prev := -1
	err = sub.Query(QuerySpec{}, func(m MessageRef) error {
		var imu msgs.Imu
		if err := imu.Unmarshal(m.Data); err != nil {
			return err
		}
		if seq := int(imu.Header.Seq); prev >= 0 && seq != prev+2 {
			t.Errorf("sample %d follows %d, want every other one", seq, prev)
		}
		prev = int(imu.Header.Seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Rebag(nil, "x", QuerySpec{}); err == nil {
		t.Error("nil source accepted")
	}
	if _, _, err := b.Rebag(bag, "full", QuerySpec{}); err == nil {
		t.Error("rebag onto existing name accepted")
	}
}

func TestBagInfo(t *testing.T) {
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), 5)
	bag, _, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatal(err)
	}
	info, err := bag.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "bag1" {
		t.Errorf("Name = %s", info.Name)
	}
	if info.Messages != 80 {
		t.Errorf("Messages = %d", info.Messages)
	}
	if len(info.Topics) != 3 {
		t.Fatalf("Topics = %d", len(info.Topics))
	}
	byTopic := map[string]TopicInfo{}
	for _, ti := range info.Topics {
		byTopic[ti.Topic] = ti
	}
	imu := byTopic["/imu"]
	if imu.Messages != 50 || imu.Type != "sensor_msgs/Imu" {
		t.Errorf("imu info = %+v", imu)
	}
	// 50 samples at 10 Hz over 4.9 s → ~10 Hz.
	if imu.RateHz < 9 || imu.RateHz > 11 {
		t.Errorf("imu rate = %.1f Hz", imu.RateHz)
	}
	if info.End.Sub(info.Start) <= 0 {
		t.Error("time range empty")
	}
	s := info.String()
	for _, want := range []string{"/imu", "messages: 80", "sensor_msgs/Imu"} {
		if !strings.Contains(s, want) {
			t.Errorf("Info.String missing %q", want)
		}
	}
	// Info must not read any payload bytes.
	if st := bag.Stats(); st.BytesRead != 0 {
		t.Errorf("Info touched %d data bytes", st.BytesRead)
	}
}

// Property: the chronological merge yields exactly the multiset of the
// per-topic streams, globally sorted by timestamp.
func TestChronoEqualsSortedUnion(t *testing.T) {
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), 7)
	bag, _, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		topic string
		time  bagio.Time
	}
	var union []rec
	if err := bag.Query(QuerySpec{}, func(m MessageRef) error {
		union = append(union, rec{m.Conn.Topic, m.Time})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(union, func(i, j int) bool { return union[i].time.Before(union[j].time) })

	var merged []rec
	if err := bag.Query(QuerySpec{Order: OrderTime}, func(m MessageRef) error {
		merged = append(merged, rec{m.Conn.Topic, m.Time})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(merged) != len(union) {
		t.Fatalf("merged %d vs union %d", len(merged), len(union))
	}
	for i := range merged {
		if merged[i].time != union[i].time {
			t.Fatalf("timestamp order diverges at %d: %v vs %v", i, merged[i].time, union[i].time)
		}
	}
	// Same multiset of (topic,time) pairs.
	count := map[rec]int{}
	for _, r := range union {
		count[r]++
	}
	for _, r := range merged {
		count[r]--
	}
	for k, v := range count {
		if v != 0 {
			t.Fatalf("multiset mismatch at %+v (%d)", k, v)
		}
	}
}
