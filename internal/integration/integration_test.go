// Package integration exercises end-to-end flows that cross package
// boundaries: live graph recording → bag → BORA container → queries →
// export → stock reader, the FUSE-like front end round trip, salvage of
// damaged recordings, and failure injection on containers.
package integration

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bagio"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/msgs"
	"repro/internal/rosbag"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// messageSet collects (topic, time, payload-hash) triples for equality
// checks across pipelines.
type messageSet map[string]int

func key(topic string, t bagio.Time, data []byte) string {
	sum := 0
	for _, b := range data {
		sum = sum*131 + int(b)
	}
	return topic + "|" + t.String() + "|" + string(rune(sum&0x7FFFFFFF))
}

func TestGraphToBoraToExportPipeline(t *testing.T) {
	dir := t.TempDir()

	// Stage 1: live graph recording.
	g := graph.New()
	sensors, err := g.NewNode("sensors")
	if err != nil {
		t.Fatal(err)
	}
	imuPub, err := sensors.Advertise("/imu", "sensor_msgs/Imu")
	if err != nil {
		t.Fatal(err)
	}
	tfPub, err := sensors.Advertise("/tf", "tf2_msgs/TFMessage")
	if err != nil {
		t.Fatal(err)
	}
	bagPath := filepath.Join(dir, "live.bag")
	w, f, err := rosbag.Create(bagPath, rosbag.WriterOptions{ChunkThreshold: 4096})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := graph.NewRecorder(g, "recorder", w, "/imu", "/tf")
	if err != nil {
		t.Fatal(err)
	}
	want := messageSet{}
	base := int64(1_700_000_000) * 1e9
	for i := 0; i < 120; i++ {
		ts := bagio.TimeFromNanos(base + int64(i)*1e7)
		imu := &msgs.Imu{Header: msgs.Header{Seq: uint32(i), Stamp: ts}}
		if err := imuPub.Publish(ts, imu); err != nil {
			t.Fatal(err)
		}
		want[key("/imu", ts, imu.Marshal(nil))]++
		if i%4 == 0 {
			tf := &msgs.TFMessage{Transforms: []msgs.TransformStamped{{Header: msgs.Header{Stamp: ts}, ChildFrameID: "/base"}}}
			if err := tfPub.Publish(ts, tf); err != nil {
				t.Fatal(err)
			}
			want[key("/tf", ts, tf.Marshal(nil))]++
		}
	}
	if err := rec.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Stage 2: organize into BORA, verify message fidelity.
	backend, err := core.New(filepath.Join(dir, "backend"), core.Options{TimeWindow: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	bag, stats, err := backend.Duplicate(bagPath, "live")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 150 {
		t.Errorf("duplicated %d messages, want 150", stats.Messages)
	}
	got := messageSet{}
	if err := bag.Query(core.QuerySpec{}, func(m core.MessageRef) error {
		got[key(m.Conn.Topic, m.Time, m.Data)]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("container has %d distinct messages, want %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("message %q: count %d, want %d", k, got[k], n)
		}
	}

	// Stage 3: export back to a bag and read with the stock reader.
	exportPath := filepath.Join(dir, "export.bag")
	ef, err := os.Create(exportPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := bag.Export(ef, rosbag.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := ef.Close(); err != nil {
		t.Fatal(err)
	}
	r, rf, err := rosbag.Open(exportPath)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	exported := messageSet{}
	if err := r.ReadMessages(rosbag.Query{}, func(m rosbag.MessageRef) error {
		exported[key(m.Conn.Topic, m.Time, m.Data)]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for k, n := range want {
		if exported[k] != n {
			t.Fatalf("exported bag missing message %q", k)
		}
	}
}

func TestVFSRoundTripPreservesQueries(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.bag")
	if _, err := workload.WriteHandheldSLAMBag(src, workload.SyntheticOptions{Seconds: 2, ScaleDown: 4000}); err != nil {
		t.Fatal(err)
	}
	backend, err := core.New(filepath.Join(dir, "backend"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := vfs.Mount(backend, filepath.Join(dir, "spool"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := fs.Create("hs.bag")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wf.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := wf.Close(); err != nil {
		t.Fatal(err)
	}

	// The BORA-Lib path and the front-end (stock reader) path must agree
	// on every query class: by topic, by app, and topics over a window.
	bag, err := backend.Open("hs")
	if err != nil {
		t.Fatal(err)
	}
	rf, err := fs.Open("hs.bag")
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	stock, err := rosbag.OpenReader(rf, rf.Size())
	if err != nil {
		t.Fatal(err)
	}
	base := bagio.TimeFromNanos(int64(1_500_000_000) * 1e9)
	for _, qc := range []struct {
		name       string
		topics     []string
		start, end bagio.Time // zero: the whole bag
	}{
		{"imu 1s window", []string{workload.TopicIMU}, base, base.Add(time.Second)},
		{"imu full", []string{workload.TopicIMU}, bagio.Time{}, bagio.Time{}},
		{"camera_info full", []string{workload.TopicRGBCameraInfo}, bagio.Time{}, bagio.Time{}},
		{"RS app full", workload.Apps()[1].Topics, bagio.Time{}, bagio.Time{}},
		{"imu+tf 2s window", []string{workload.TopicIMU, workload.TopicTF}, base, base.Add(2 * time.Second)},
	} {
		var boraCount, stockCount int
		if err := bag.Query(core.QuerySpec{Topics: qc.topics, Start: qc.start, End: qc.end}, func(core.MessageRef) error {
			boraCount++
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", qc.name, err)
		}
		if err := stock.ReadMessages(rosbag.Query{Topics: qc.topics, Start: qc.start, End: qc.end}, func(rosbag.MessageRef) error {
			stockCount++
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", qc.name, err)
		}
		if boraCount != stockCount || boraCount == 0 {
			t.Errorf("%s: BORA path %d vs front-end stock path %d messages", qc.name, boraCount, stockCount)
		}
	}
}

func TestSalvageThenOrganize(t *testing.T) {
	dir := t.TempDir()
	// Record a bag and truncate it (simulated crash), then salvage and
	// organize the salvaged bag.
	src := filepath.Join(dir, "crash.bag")
	if _, err := workload.WriteHandheldSLAMBag(src, workload.SyntheticOptions{
		Seconds: 2, ScaleDown: 4000, Writer: rosbag.WriterOptions{ChunkThreshold: 16 * 1024},
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	cut := raw[:len(raw)*3/4]
	if err := os.WriteFile(src, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rosbag.Open(src); err == nil {
		t.Fatal("truncated bag opened cleanly")
	}

	salvaged := filepath.Join(dir, "salvaged.bag")
	sf, err := os.Create(salvaged)
	if err != nil {
		t.Fatal(err)
	}
	in, err := os.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := in.Stat()
	stats, err := rosbag.Reindex(in, st.Size(), sf, rosbag.WriterOptions{})
	in.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}
	if !stats.Truncated || stats.Messages == 0 {
		t.Fatalf("salvage stats = %+v", stats)
	}

	backend, err := core.New(filepath.Join(dir, "backend"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bag, dstats, err := backend.Duplicate(salvaged, "salvaged")
	if err != nil {
		t.Fatal(err)
	}
	if uint64(dstats.Messages) != stats.Messages {
		t.Errorf("organized %d messages, salvage recovered %d", dstats.Messages, stats.Messages)
	}
	if len(bag.Topics()) == 0 {
		t.Error("no topics after salvage")
	}
}

func TestContainerFailureInjection(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.bag")
	if _, err := workload.WriteHandheldSLAMBag(src, workload.SyntheticOptions{Seconds: 1, ScaleDown: 4000}); err != nil {
		t.Fatal(err)
	}
	backend, err := core.New(filepath.Join(dir, "backend"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := backend.Duplicate(src, "victim"); err != nil {
		t.Fatal(err)
	}
	topicDir := filepath.Join(dir, "backend", "victim", container.EncodeTopicDir(workload.TopicIMU))

	t.Run("corrupt index", func(t *testing.T) {
		idx := filepath.Join(topicDir, container.IndexFileName)
		orig, err := os.ReadFile(idx)
		if err != nil {
			t.Fatal(err)
		}
		defer os.WriteFile(idx, orig, 0o644)
		if err := os.WriteFile(idx, orig[:len(orig)-5], 0o644); err != nil {
			t.Fatal(err)
		}
		bag, err := backend.Open("victim")
		if err != nil {
			t.Fatal(err) // open is lazy: corruption surfaces at query time
		}
		if err := bag.Query(core.QuerySpec{Topics: []string{workload.TopicIMU}}, func(core.MessageRef) error { return nil }); err == nil {
			t.Error("query over corrupt index succeeded")
		}
	})

	// The time index is built from the topic's index: a time query over
	// a corrupt index fails as a full scan does.
	t.Run("corrupt time index", func(t *testing.T) {
		idx := filepath.Join(topicDir, container.IndexFileName)
		orig, err := os.ReadFile(idx)
		if err != nil {
			t.Fatal(err)
		}
		defer os.WriteFile(idx, orig, 0o644)
		if err := os.WriteFile(idx, []byte{1, 2, 3}, 0o644); err != nil {
			t.Fatal(err)
		}
		bag, err := backend.Open("victim")
		if err != nil {
			t.Fatal(err)
		}
		err = bag.Query(core.QuerySpec{Topics: []string{workload.TopicIMU}, Start: bagio.Time{Sec: 1}, End: bagio.Time{Sec: 2}}, func(core.MessageRef) error { return nil })
		if err == nil {
			t.Error("time query over corrupt time index succeeded")
		}
	})

	// A data cut leaves the time index naming messages past the data's
	// end: a time query over them reports ErrIndexBeyondData.
	t.Run("time index beyond its topic", func(t *testing.T) {
		data := filepath.Join(topicDir, container.DataFileName)
		orig, err := os.ReadFile(data)
		if err != nil {
			t.Fatal(err)
		}
		defer os.WriteFile(data, orig, 0o644)
		c, err := container.Open(filepath.Dir(topicDir))
		if err != nil {
			t.Fatal(err)
		}
		topic, err := c.Topic(workload.TopicIMU)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := topic.Entries()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(data, orig[:len(orig)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		bag, err := backend.Open("victim")
		if err != nil {
			t.Fatal(err)
		}
		at := entries[len(entries)-1].Time
		err = bag.Query(core.QuerySpec{Topics: []string{workload.TopicIMU}, Start: at, End: at}, func(core.MessageRef) error { return nil })
		if !errors.Is(err, container.ErrIndexBeyondData) {
			t.Errorf("time query over a time index beyond its topic: err = %v, want ErrIndexBeyondData", err)
		}
	})

	t.Run("missing data file", func(t *testing.T) {
		data := filepath.Join(topicDir, container.DataFileName)
		orig, err := os.ReadFile(data)
		if err != nil {
			t.Fatal(err)
		}
		defer os.WriteFile(data, orig, 0o644)
		if err := os.Remove(data); err != nil {
			t.Fatal(err)
		}
		bag, err := backend.Open("victim")
		if err != nil {
			t.Fatal(err)
		}
		if err := bag.Query(core.QuerySpec{Topics: []string{workload.TopicIMU}}, func(core.MessageRef) error { return nil }); err == nil {
			t.Error("query without data file succeeded")
		}
	})

	t.Run("missing topic dir fails open", func(t *testing.T) {
		moved := filepath.Join(dir, "moved")
		if err := os.Rename(topicDir, moved); err != nil {
			t.Fatal(err)
		}
		defer os.Rename(moved, topicDir)
		if _, err := backend.Open("victim"); !errors.Is(err, container.ErrTopicDirMissing) {
			t.Errorf("open without a topic dir the manifest names: %v, want ErrTopicDirMissing", err)
		}
	})

	t.Run("truncated data detected at read", func(t *testing.T) {
		data := filepath.Join(topicDir, container.DataFileName)
		orig, err := os.ReadFile(data)
		if err != nil {
			t.Fatal(err)
		}
		defer os.WriteFile(data, orig, 0o644)
		if err := os.WriteFile(data, orig[:len(orig)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		bag, err := backend.Open("victim")
		if err != nil {
			t.Fatal(err)
		}
		readErr := bag.Query(core.QuerySpec{Topics: []string{workload.TopicIMU}}, func(m core.MessageRef) error {
			if len(m.Data) == 0 {
				t.Error("empty payload delivered")
			}
			return nil
		})
		if readErr == nil {
			t.Error("read past truncated data succeeded")
		}
	})
}

func TestRebagExportAgreement(t *testing.T) {
	// Rebag a subset, export both, and check the subset is exactly the
	// filtered view of the original.
	dir := t.TempDir()
	src := filepath.Join(dir, "src.bag")
	if _, err := workload.WriteHandheldSLAMBag(src, workload.SyntheticOptions{Seconds: 2, ScaleDown: 4000}); err != nil {
		t.Fatal(err)
	}
	backend, err := core.New(filepath.Join(dir, "backend"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := backend.Duplicate(src, "full")
	if err != nil {
		t.Fatal(err)
	}
	sub, kept, err := backend.Rebag(full, "tf_only", core.QuerySpec{Topics: []string{workload.TopicTF}})
	if err != nil {
		t.Fatal(err)
	}
	var fullTF [][]byte
	if err := full.Query(core.QuerySpec{Topics: []string{workload.TopicTF}}, func(m core.MessageRef) error {
		fullTF = append(fullTF, append([]byte(nil), m.Data...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if int(kept) != len(fullTF) {
		t.Fatalf("kept %d, original has %d", kept, len(fullTF))
	}
	i := 0
	if err := sub.Query(core.QuerySpec{}, func(m core.MessageRef) error {
		if i < len(fullTF) && !bytes.Equal(m.Data, fullTF[i]) {
			t.Errorf("message %d differs after rebag", i)
		}
		i++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if i != len(fullTF) {
		t.Errorf("rebag has %d messages, want %d", i, len(fullTF))
	}
}
