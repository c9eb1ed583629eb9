package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bagio"
	"repro/internal/container"
	"repro/internal/faultfs"
	"repro/internal/rosbag"
)

// topicFiles reads the writer-owned files of every topic directory of
// the container at root, keyed "<topic dir>/<file>". The conn file is
// returned with its connection id removed: ids are the writer's to
// assign, everything else must match.
func topicFiles(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	dirs, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		for _, name := range []string{container.DataFileName, container.IndexFileName,
			container.TimeIdxFileName, container.ChecksumFileName, container.ConnFileName} {
			buf, err := os.ReadFile(filepath.Join(root, d.Name(), name))
			if err != nil {
				t.Fatal(err)
			}
			if name == container.ConnFileName {
				h, err := bagio.DecodeHeader(buf)
				if err != nil {
					t.Fatal(err)
				}
				delete(h, "conn")
				buf = h.Encode()
			}
			out[d.Name()+"/"+name] = buf
		}
	}
	return out
}

// TestOneWriterEquivalence feeds the same message stream into a
// container four ways — Duplicate, Rebag of that duplicate, CreateBag +
// WriteMessage, and a live recording whose window outlasts the stream —
// and requires byte-identical data, index, timeidx and checksum files
// per topic (conn files equal modulo the connection id): there is one
// writer, whoever feeds it. Repairing a copy that lost a timeidx must
// reproduce the same bytes again.
func TestOneWriterEquivalence(t *testing.T) {
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), 6)
	dup, _, err := b.Duplicate(src, "dup")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Rebag(dup, "rebag", QuerySpec{}); err != nil {
		t.Fatal(err)
	}
	classic, err := b.CreateBag("classic")
	if err != nil {
		t.Fatal(err)
	}
	live, err := b.CreateLiveBag("live", 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	r, f, err := rosbag.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, rec := range []*Recorder{classic, live} {
		ids := map[string]uint32{}
		err := r.ReadMessages(rosbag.Query{}, func(m rosbag.MessageRef) error {
			id, ok := ids[m.Conn.Topic]
			if !ok {
				var err error
				if id, err = rec.AddConnection(m.Conn.Topic, m.Conn.Type); err != nil {
					return err
				}
				ids[m.Conn.Topic] = id
			}
			return rec.WriteMessage(id, m.Time, m.Data)
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if n := live.Segments(); n != 1 {
		t.Fatalf("live recording rotated into %d segments; the window must outlast the stream", n)
	}

	want := topicFiles(t, filepath.Join(b.Root(), "dup"))
	if len(want) != 3*5 {
		t.Fatalf("duplicate wrote %d topic files, want 15", len(want))
	}
	for name, root := range map[string]string{
		"rebag":   filepath.Join(b.Root(), "rebag"),
		"classic": filepath.Join(b.Root(), "classic"),
		"live":    segmentDir(filepath.Join(b.Root(), "live"), 0),
	} {
		got := topicFiles(t, root)
		for file, w := range want {
			if !bytes.Equal(got[file], w) {
				t.Errorf("%s: %s differs from the duplicate's (%d vs %d bytes)", name, file, len(got[file]), len(w))
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d topic files, duplicate has %d", name, len(got), len(want))
		}
	}

	// Repair rebuilds a lost time index through the writer's own helper.
	damaged := filepath.Join(t.TempDir(), "copy")
	if err := copyTree(faultfs.OS, filepath.Join(b.Root(), "dup"), damaged); err != nil {
		t.Fatal(err)
	}
	lost := filepath.Join(damaged, container.EncodeTopicDir("/imu"), container.TimeIdxFileName)
	if err := os.Remove(lost); err != nil {
		t.Fatal(err)
	}
	if rep, err := container.Repair(damaged); err != nil || !rep.Clean() {
		t.Fatalf("repair: %v, %v", rep, err)
	}
	for file, w := range topicFiles(t, damaged) {
		if !bytes.Equal(want[file], w) {
			t.Errorf("repaired copy: %s differs from the original", file)
		}
	}
}

// foreignConn is a connection as a real ROS bag carries it: a type
// msgdef has never heard of, so every field must be carried, not
// re-derived.
var foreignConn = bagio.Connection{
	ID: 7, Topic: "/lidar/points", Type: "acme_msgs/Sweep",
	MD5Sum: "0123456789abcdef0123456789abcdef",
	Def:    "uint32 seq\nfloat32[] ranges\n",
	Caller: "/acme_driver", Latch: true,
}

// writeForeignBag hand-builds (straight from bagio records, no writer
// under test involved) a one-chunk bag holding foreignConn and n
// messages on it. Like an interrupted recording it has no index
// section, which a scan does not need.
func writeForeignBag(t *testing.T, path string, n int) {
	t.Helper()
	var inner bytes.Buffer
	iw := bagio.NewRecordWriter(&inner)
	if err := iw.WriteRecord(foreignConn.Encode()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		md := &bagio.MessageData{Conn: foreignConn.ID, Time: bagio.Time{Sec: uint32(100 + i)}, Data: []byte{byte(i), 1, 2, 3}}
		if err := iw.WriteRecord(md.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	chunk, err := bagio.EncodeChunk(inner.Bytes(), bagio.CompressionNone)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := (&bagio.BagHeader{}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	fw := bagio.NewRecordWriter(&file)
	if err := fw.WriteMagic(); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteRaw(hdr); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteRecord(chunk); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestConnectionMetadataSurvivesEveryWriter is the provenance
// regression: a connection's type, md5sum, definition, caller id and
// latching flag reach the far end of Duplicate → Rebag → Export →
// Reindex → Duplicate intact, for a type msgdef does not know. (Before
// the writers carried the connection itself, Rebag, Export and Reindex
// re-derived md5sum and definition from msgdef and wrote "" here, and
// no container kept callerid or latching at all.)
func TestConnectionMetadataSurvivesEveryWriter(t *testing.T) {
	const msgs = 5
	b := newBORA(t)
	dir := t.TempDir()
	check := func(stage string, conns []*bagio.Connection, count int) {
		t.Helper()
		if len(conns) != 1 || count != msgs {
			t.Fatalf("%s: %d connections, %d messages; want 1, %d", stage, len(conns), count, msgs)
		}
		got := *conns[0]
		got.ID = foreignConn.ID // ids are the writer's to assign
		if got != foreignConn {
			t.Errorf("%s: connection is\n%+v, want\n%+v", stage, got, foreignConn)
		}
	}
	checkBag := func(stage string, bag *Bag) {
		t.Helper()
		conns, err := bag.Connections()
		if err != nil {
			t.Fatal(err)
		}
		n, err := bag.MessageCount()
		if err != nil {
			t.Fatal(err)
		}
		check(stage, conns, n)
	}
	checkFile := func(stage, path string) {
		t.Helper()
		r, f, err := rosbag.Open(path)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		defer f.Close()
		check(stage, r.Connections(), int(r.MessageCount()))
	}

	src := filepath.Join(dir, "foreign.bag")
	writeForeignBag(t, src, msgs)
	dup, _, err := b.Duplicate(src, "dup")
	if err != nil {
		t.Fatal(err)
	}
	checkBag("Duplicate", dup)

	rebagged, _, err := b.Rebag(dup, "rebag", QuerySpec{})
	if err != nil {
		t.Fatal(err)
	}
	checkBag("Rebag", rebagged)

	exported := filepath.Join(dir, "exported.bag")
	ef, err := os.Create(exported)
	if err != nil {
		t.Fatal(err)
	}
	if err := rebagged.Export(ef, rosbag.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := ef.Close(); err != nil {
		t.Fatal(err)
	}
	checkFile("Export", exported)

	raw, err := os.ReadFile(exported)
	if err != nil {
		t.Fatal(err)
	}
	reindexed := filepath.Join(dir, "reindexed.bag")
	rf, err := os.Create(reindexed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rosbag.Reindex(bytes.NewReader(raw), int64(len(raw)), rf, rosbag.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := rf.Close(); err != nil {
		t.Fatal(err)
	}
	checkFile("Reindex", reindexed)

	again, _, err := b.Duplicate(reindexed, "again")
	if err != nil {
		t.Fatal(err)
	}
	checkBag("second Duplicate", again)
}
