package rosbag

import (
	"testing"

	"repro/internal/bagio"
	"repro/internal/msgs"
)

// writeUnclosedBag records messages but never calls Close, leaving the
// bag without an index section (index_pos = 0).
func writeUnclosedBag(t *testing.T, count int) *memFile {
	t.Helper()
	mf := &memFile{}
	w, err := NewWriter(mf, WriterOptions{ChunkThreshold: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < count; i++ {
		ts := bagio.Time{Sec: uint32(10 + i)}
		m := &msgs.Imu{Header: msgs.Header{Seq: uint32(i), Stamp: ts}}
		if err := w.WriteMsg("/imu", ts, m); err != nil {
			t.Fatal(err)
		}
	}
	// Flush complete chunks without writing the index section: calling
	// an internal flush via a message burst is enough since the 1 KiB
	// threshold seals chunks as we go; the in-flight partial chunk is
	// simply lost, as with a real crash.
	return mf
}

func TestReindexUnclosedBag(t *testing.T) {
	mf := writeUnclosedBag(t, 60)
	// The stock open must refuse it...
	if _, err := OpenReader(mf, int64(len(mf.buf))); err == nil {
		t.Fatal("unclosed bag opened without reindex")
	}
	// ...but Reindex recovers the sealed chunks.
	out := &memFile{}
	stats, err := Reindex(mf, int64(len(mf.buf)), out, WriterOptions{})
	if err != nil {
		t.Fatalf("Reindex: %v", err)
	}
	if stats.Messages == 0 || stats.Chunks == 0 || stats.Connections != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// Messages still in the unsealed final chunk are legitimately lost;
	// everything else must be present and readable.
	r, err := OpenReader(out, int64(len(out.buf)))
	if err != nil {
		t.Fatalf("open reindexed bag: %v", err)
	}
	if got := r.MessageCount(); got != stats.Messages {
		t.Errorf("reindexed bag has %d messages, stats say %d", got, stats.Messages)
	}
	if stats.Messages < 50 { // 60 minus at most one chunk's worth
		t.Errorf("recovered only %d of 60 messages", stats.Messages)
	}
	var count int
	if err := r.ReadMessages(Query{}, func(m MessageRef) error {
		var imu msgs.Imu
		if err := imu.Unmarshal(m.Data); err != nil {
			return err
		}
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if uint64(count) != stats.Messages {
		t.Errorf("read %d, want %d", count, stats.Messages)
	}
}

func TestReindexTruncatedTail(t *testing.T) {
	mf := writeTestBag(t, WriterOptions{ChunkThreshold: 1024}, 90)
	// Chop the file mid-way: the index section and later chunks vanish.
	cut := mf.buf[:len(mf.buf)*2/3]
	src := &memFile{buf: cut}
	out := &memFile{}
	stats, err := Reindex(src, int64(len(cut)), out, WriterOptions{})
	if err != nil {
		t.Fatalf("Reindex: %v", err)
	}
	if !stats.Truncated {
		t.Error("truncation not reported")
	}
	if stats.Messages == 0 {
		t.Fatal("nothing recovered from truncated bag")
	}
	r, err := OpenReader(out, int64(len(out.buf)))
	if err != nil {
		t.Fatalf("open salvaged bag: %v", err)
	}
	if got := r.MessageCount(); got != stats.Messages {
		t.Errorf("salvaged bag has %d messages, stats say %d", got, stats.Messages)
	}
}

func TestReindexIntactBag(t *testing.T) {
	mf := writeTestBag(t, WriterOptions{ChunkThreshold: 2048}, 45)
	out := &memFile{}
	stats, err := Reindex(mf, int64(len(mf.buf)), out, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Truncated {
		t.Error("intact bag reported truncated")
	}
	if stats.Messages != 45 {
		t.Errorf("Messages = %d, want 45", stats.Messages)
	}
	if stats.Connections != 3 {
		t.Errorf("Connections = %d", stats.Connections)
	}
	r, err := OpenReader(out, int64(len(out.buf)))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.MessageCount(); got != 45 {
		t.Errorf("reindexed MessageCount = %d", got)
	}
}

func TestReindexRejectsGarbage(t *testing.T) {
	if _, err := Reindex(&memFile{buf: []byte("garbage")}, 7, &memFile{}, WriterOptions{}); err == nil {
		t.Error("garbage accepted")
	}
	// Valid magic, missing bag header.
	mf := &memFile{buf: []byte(bagio.Magic)}
	if _, err := Reindex(mf, int64(len(mf.buf)), &memFile{}, WriterOptions{}); err == nil {
		t.Error("header-less file accepted")
	}
}

func TestFilterByTopic(t *testing.T) {
	mf := writeTestBag(t, WriterOptions{ChunkThreshold: 1024}, 90)
	out := &memFile{}
	kept, err := Filter(mf, int64(len(mf.buf)), out, Query{Topics: []string{"/imu"}}, nil, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if kept != 30 {
		t.Errorf("kept = %d, want 30", kept)
	}
	r, err := OpenReader(out, int64(len(out.buf)))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Topics(); len(got) != 1 || got[0] != "/imu" {
		t.Errorf("Topics = %v", got)
	}
	if got := r.MessageCount(); got != 30 {
		t.Errorf("MessageCount = %d", got)
	}
}

func TestFilterTimeRangeAndPredicate(t *testing.T) {
	mf := writeTestBag(t, WriterOptions{ChunkThreshold: 1024}, 90)
	out := &memFile{}
	start := bagio.Time{Sec: 1010}
	end := bagio.Time{Sec: 1039, NSec: 999999999}
	kept, err := Filter(mf, int64(len(mf.buf)), out,
		Query{Topics: []string{"/imu", "/tf"}, Start: start, End: end},
		func(m MessageRef) bool { return m.Conn.Topic == "/imu" }, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if kept != 10 { // imu at i%3==0 in [1010,1039]: i ∈ {1012..1039 step}, 10 samples
		t.Errorf("kept = %d", kept)
	}
	r, err := OpenReader(out, int64(len(out.buf)))
	if err != nil {
		t.Fatal(err)
	}
	err = r.ReadMessages(Query{}, func(m MessageRef) error {
		if m.Conn.Topic != "/imu" {
			t.Errorf("predicate leaked topic %s", m.Conn.Topic)
		}
		if m.Time.Before(start) || end.Before(m.Time) {
			t.Errorf("message at %v outside range", m.Time)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Convenience wrapper agrees.
	out2 := &memFile{}
	kept2, err := Filter(mf, int64(len(mf.buf)), out2, Query{Topics: []string{"/imu"}, Start: start, End: end}, nil, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if kept2 != 10 {
		t.Errorf("Filter over a time range kept %d", kept2)
	}
}

func TestFilterGarbageSource(t *testing.T) {
	bad := &memFile{buf: []byte("nope")}
	if _, err := Filter(bad, 4, &memFile{}, Query{}, nil, WriterOptions{}); err == nil {
		t.Error("garbage source accepted")
	}
}
