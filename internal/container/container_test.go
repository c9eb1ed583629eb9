package container

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bagio"
)

func TestEncodeDecodeTopicDir(t *testing.T) {
	cases := []string{"/imu", "/camera/rgb/image_color", "/tf", "/a/b/c/d"}
	for _, topic := range cases {
		dir := EncodeTopicDir(topic)
		if filepath.Base(dir) != dir {
			t.Errorf("EncodeTopicDir(%q) = %q contains a path separator", topic, dir)
		}
		if got := DecodeTopicDir(dir); got != topic {
			t.Errorf("DecodeTopicDir(EncodeTopicDir(%q)) = %q", topic, got)
		}
	}
}

func TestEncodeTopicDirQuick(t *testing.T) {
	// Round trip holds for any ROS-legal topic name (no '#', leading '/').
	f := func(segs []uint8) bool {
		topic := ""
		for _, s := range segs {
			topic += "/" + string(rune('a'+s%26))
		}
		if topic == "" {
			topic = "/x"
		}
		return DecodeTopicDir(EncodeTopicDir(topic)) == topic
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func newTestContainer(t *testing.T) *Container {
	t.Helper()
	c, err := Create(filepath.Join(t.TempDir(), "bag1"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCreateRejectsNonEmpty(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "junk"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir); err == nil {
		t.Error("Create accepted a non-empty directory")
	}
}

func TestOpenRejectsNonContainer(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Error("Open accepted a directory without container meta")
	}
}

func TestTopicWriteReadRoundTrip(t *testing.T) {
	c := newTestContainer(t)
	conn := &bagio.Connection{ID: 2, Topic: "/imu", Type: "sensor_msgs/Imu", MD5Sum: "abc", Def: "def text"}
	tw, err := c.CreateTopic(conn)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{[]byte("first"), []byte("second message"), []byte("x")}
	for i, p := range payloads {
		if err := tw.Append(bagio.Time{Sec: uint32(10 + i)}, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := tw.Append(bagio.Time{}, nil); err == nil {
		t.Error("Append after Close should fail")
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}

	// Re-open from disk to exercise the persisted state.
	c2, err := Open(c.Root())
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.Topics(); !reflect.DeepEqual(got, []string{"/imu"}) {
		t.Fatalf("Topics = %v", got)
	}
	topic, err := c2.Topic("/imu")
	if err != nil {
		t.Fatal(err)
	}
	gotConn := topic.Connection()
	if gotConn.Type != "sensor_msgs/Imu" || gotConn.MD5Sum != "abc" || gotConn.Def != "def text" || gotConn.ID != 2 {
		t.Errorf("connection metadata lost: %+v", gotConn)
	}
	es, err := topic.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 3 {
		t.Fatalf("entries = %d, want 3", len(es))
	}
	df, err := topic.OpenData()
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	var wantOff uint64
	var scratch []byte
	for i, e := range es {
		if e.Time != (bagio.Time{Sec: uint32(10 + i)}) {
			t.Errorf("entry %d time = %v", i, e.Time)
		}
		if e.LogicalOffset != wantOff || e.PhysicalOffset != wantOff {
			t.Errorf("entry %d offsets = %d/%d, want %d", i, e.LogicalOffset, e.PhysicalOffset, wantOff)
		}
		got, err := topic.ReadMessageInto(df, e, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payloads[i]) {
			t.Errorf("entry %d payload = %q, want %q", i, got, payloads[i])
		}
		wantOff += uint64(len(payloads[i]))
	}
	if n, err := topic.MessageCount(); err != nil || n != 3 {
		t.Errorf("MessageCount = %d, %v", n, err)
	}
	if sz, err := topic.DataSize(); err != nil || sz != int64(wantOff) {
		t.Errorf("DataSize = %d, %v; want %d", sz, err, wantOff)
	}
}

func TestCreateTopicDuplicate(t *testing.T) {
	c := newTestContainer(t)
	if _, err := c.CreateTopic(&bagio.Connection{Topic: "/t"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTopic(&bagio.Connection{Topic: "/t"}); err == nil {
		t.Error("duplicate CreateTopic should fail")
	}
}

func TestTopicLookupErrors(t *testing.T) {
	c := newTestContainer(t)
	if _, err := c.Topic("/missing"); err == nil {
		t.Error("Topic on missing name should fail")
	}
	if _, err := c.TopicPath("/missing"); err == nil {
		t.Error("TopicPath on missing name should fail")
	}
}

func TestTopicPathPointsIntoContainer(t *testing.T) {
	c := newTestContainer(t)
	tw, err := c.CreateTopic(&bagio.Connection{Topic: "/camera/depth/image"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := c.TopicPath("/camera/depth/image")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(c.Root(), p)
	if err != nil || rel != EncodeTopicDir("/camera/depth/image") {
		t.Errorf("TopicPath = %s (rel %s, %v)", p, rel, err)
	}
}

func TestEntriesRejectsCorruptIndex(t *testing.T) {
	c := newTestContainer(t)
	tw, err := c.CreateTopic(&bagio.Connection{Topic: "/t"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Append(bagio.Time{Sec: 1}, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	idx := filepath.Join(c.Root(), EncodeTopicDir("/t"), IndexFileName)
	if err := os.WriteFile(idx, []byte("short"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(c.Root())
	if err != nil {
		t.Fatal(err)
	}
	topic, err := c2.Topic("/t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topic.Entries(); err == nil {
		t.Error("Entries accepted a corrupt index file")
	}
}

func TestIndexEntryCodecQuick(t *testing.T) {
	f := func(sec, nsec, length uint32, loff, poff uint64) bool {
		e := IndexEntry{
			Time:           bagio.Time{Sec: sec, NSec: nsec % 1e9},
			LogicalOffset:  loff,
			Length:         length,
			PhysicalOffset: poff,
		}
		var buf [IndexEntrySize]byte
		e.encode(buf[:])
		return decodeIndexEntry(buf[:]) == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOpenDiscoversMultipleTopics(t *testing.T) {
	c := newTestContainer(t)
	topics := []string{"/imu", "/tf", "/camera/rgb/image_color"}
	for i, tp := range topics {
		tw, err := c.CreateTopic(&bagio.Connection{ID: uint32(i), Topic: tp, Type: "x/Y"})
		if err != nil {
			t.Fatal(err)
		}
		if err := tw.Append(bagio.Time{Sec: 1}, []byte(tp)); err != nil {
			t.Fatal(err)
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(c.Root())
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.Topics(); len(got) != 3 {
		t.Fatalf("Topics = %v", got)
	}
	for _, tp := range topics {
		topic, err := c2.Topic(tp)
		if err != nil {
			t.Errorf("Topic(%s): %v", tp, err)
			continue
		}
		if topic.Name() != tp {
			t.Errorf("Name = %s", topic.Name())
		}
		if topic.Dir() == "" {
			t.Error("empty Dir")
		}
	}
}

// TestManifestCarriesEveryConnField: a topic's manifest header
// round-trips every bagio.Connection field, its window and checksum, and
// a connection without the optional fields costs no bytes for them.
func TestManifestCarriesEveryConnField(t *testing.T) {
	full := &bagio.Connection{ID: 3, Topic: "/scan", Type: "acme_msgs/Sweep",
		MD5Sum: "0123456789abcdef0123456789abcdef", Def: "uint32 seq\n", Caller: "/driver", Latch: true}
	want := topicMeta{dir: EncodeTopicDir(full.Topic), conn: full, window: 3 * time.Second, summed: true, sum: 0xdeadbeef, size: 1 << 40}
	m, err := decodeMeta(encodeMeta(&Meta{State: StateSealed, Gen: 7, Derivation: "abc", topics: []topicMeta{want}}))
	if err != nil {
		t.Fatal(err)
	}
	if m.State != StateSealed || m.Gen != 7 || m.Derivation != "abc" || len(m.topics) != 1 {
		t.Fatalf("read back %+v", m)
	}
	if got := m.topics[0]; *got.conn != *full || got.dir != want.dir || got.window != want.window ||
		!got.summed || got.sum != want.sum || got.size != want.size {
		t.Errorf("read back %+v (conn %+v), wrote %+v (conn %+v)", got, *got.conn, want, *full)
	}
	plain := encodeTopic(topicMeta{dir: "imu", conn: &bagio.Connection{Topic: "/imu", Type: "sensor_msgs/Imu"}})
	for _, field := range []string{"callerid", "latching", "crc"} {
		if bytes.Contains(plain, []byte(field)) {
			t.Errorf("plain building topic header spends bytes on %q", field)
		}
	}
}

// TestOpenReadsNoTopicFile: with every topic's data and index file
// deleted and the directories kept, Open still succeeds and lists each
// topic with its connection — it reads the manifest and lists the root,
// and nothing inside a topic directory.
func TestOpenReadsNoTopicFile(t *testing.T) {
	root := filepath.Join(t.TempDir(), "bag")
	c, err := Create(root)
	if err != nil {
		t.Fatal(err)
	}
	conns := map[string]*bagio.Connection{
		"/imu": {ID: 0, Topic: "/imu", Type: "sensor_msgs/Imu", MD5Sum: "6a62c6daae103f4ff57a132d6f95cec2", Def: "float64 x\n"},
		"/tf":  {ID: 1, Topic: "/tf", Type: "tf2_msgs/TFMessage", Caller: "/broadcaster", Latch: true},
	}
	for _, conn := range conns {
		tw, err := c.CreateTopic(conn)
		if err != nil {
			t.Fatal(err)
		}
		if err := tw.Append(bagio.Time{Sec: 1}, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	for topic := range conns {
		for _, name := range []string{DataFileName, IndexFileName} {
			if err := os.Remove(filepath.Join(root, EncodeTopicDir(topic), name)); err != nil {
				t.Fatal(err)
			}
		}
	}
	c2, err := Open(root)
	if err != nil {
		t.Fatalf("Open of a tree whose topic directories are empty: %v", err)
	}
	if got := c2.Topics(); !reflect.DeepEqual(got, []string{"/imu", "/tf"}) {
		t.Fatalf("Topics = %v", got)
	}
	for topic, want := range conns {
		tp, err := c2.Topic(topic)
		if err != nil {
			t.Fatal(err)
		}
		if got := tp.Connection(); *got != *want {
			t.Errorf("%s: connection %+v, want %+v", topic, *got, *want)
		}
	}
}
