package pathsim

// Model-validation tests: the cost simulator's op accounting must agree
// with (a) the layout's byte accounting and (b) the real
// implementations' observable behaviour on the same logical workload.
// This is the evidence behind DESIGN.md §3's claim that relative costs
// are preserved because op counts are.

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bagio"
	"repro/internal/core"
	"repro/internal/rosbag"
	"repro/internal/simio"
	"repro/internal/workload"
)

func TestBaselineOpenOpAccounting(t *testing.T) {
	bag := hsBag(t, 2_900_000_000)
	env := simio.NewLocalEnv(simio.SingleNodeSSD())
	BaselineOpen(env, bag)
	ops := env.Clock().Ops()
	wantBytes := int64(13+4096) + bag.IndexSectionBytes()
	if ops.BytesRead != wantBytes {
		t.Errorf("open read %d bytes, layout says %d", ops.BytesRead, wantBytes)
	}
	if ops.Seeks != 2 { // bag header + index section
		t.Errorf("open performed %d seeks, want 2", ops.Seeks)
	}
}

func TestBoraQueryTopicsByteAccounting(t *testing.T) {
	bag := hsBag(t, 2_900_000_000)
	ti := bag.TopicIndex(workload.TopicRGBImage)
	topic := bag.Topics[ti]
	env := simio.NewLocalEnv(simio.SingleNodeSSD())
	BoraQueryTopics(env, bag, []string{workload.TopicRGBImage})
	ops := env.Clock().Ops()
	wantBytes := topic.Bytes + int64(topic.Count)*containerIndexEntryBytes
	if ops.BytesRead != wantBytes {
		t.Errorf("query read %d bytes, want exactly topic data + index = %d", ops.BytesRead, wantBytes)
	}
	if ops.Seeks != 2 { // index file + data file
		t.Errorf("query performed %d seeks, want 2", ops.Seeks)
	}
}

func TestBaselineQueryReadsAtLeastTopicBytes(t *testing.T) {
	bag := hsBag(t, 2_900_000_000)
	ti := bag.TopicIndex(workload.TopicDepthImage)
	topic := bag.Topics[ti]
	env := simio.NewLocalEnv(simio.SingleNodeSSD())
	BaselineQueryTopics(env, bag, []string{workload.TopicDepthImage})
	ops := env.Clock().Ops()
	if ops.BytesRead < topic.Bytes {
		t.Errorf("baseline read %d bytes, less than the topic payload %d", ops.BytesRead, topic.Bytes)
	}
	// And its seek count scales with chunks touched, far above BORA's 2.
	if ops.Seeks < len(bag.Chunks)/4 {
		t.Errorf("baseline performed %d seeks over %d chunks; expected chunk-granular seeking", ops.Seeks, len(bag.Chunks))
	}
}

// TestTimeQuerySelectivityMatchesRealImplementation checks that the
// model's window-bounded byte fraction agrees with what the REAL BORA
// core reads for the same fractional window over the same topic mix.
func TestTimeQuerySelectivityMatchesRealImplementation(t *testing.T) {
	// Real side: 10-second scaled-down Handheld SLAM bag.
	dir := t.TempDir()
	src := filepath.Join(dir, "src.bag")
	if _, err := workload.WriteHandheldSLAMBag(src, workload.SyntheticOptions{
		Seconds: 10, ScaleDown: 4000,
		Writer: rosbag.WriterOptions{ChunkThreshold: 64 * 1024},
	}); err != nil {
		t.Fatal(err)
	}
	backend, err := core.New(filepath.Join(dir, "backend"), core.Options{TimeWindow: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	realBag, _, err := backend.Duplicate(src, "v")
	if err != nil {
		t.Fatal(err)
	}
	topic := workload.TopicIMU
	full, err := realBag.MessageCount(topic)
	if err != nil {
		t.Fatal(err)
	}
	base := bagio.TimeFromNanos(int64(1_500_000_000) * 1e9)
	// Query 30% of the recording.
	end := base.Add(3 * time.Second)
	fresh, err := backend.Open("v")
	if err != nil {
		t.Fatal(err)
	}
	var got int
	if err := fresh.Query(core.QuerySpec{Topics: []string{topic}, Start: base, End: end}, func(core.MessageRef) error {
		got++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	realFrac := float64(got) / float64(full)

	// Model side: same topic mix, same 30% window.
	bag := hsBag(t, 2_900_000_000)
	ti := bag.TopicIndex(topic)
	env := simio.NewLocalEnv(simio.SingleNodeSSD())
	BoraQueryTime(env, bag, []string{topic}, 0, bag.DurationNs*3/10, 500*time.Millisecond)
	idxBytes := indexBytes(bag, ti)
	modelFrac := float64(env.Clock().Ops().BytesRead-idxBytes) / float64(bag.Topics[ti].Bytes)

	if realFrac < 0.25 || realFrac > 0.35 {
		t.Errorf("real 30%% window returned %.2f of messages", realFrac)
	}
	diff := modelFrac - realFrac
	if diff < 0 {
		diff = -diff
	}
	// The model may over-read by up to one window on each side.
	if diff > 0.1 {
		t.Errorf("selectivity disagreement: real %.3f vs model %.3f", realFrac, modelFrac)
	}
}

// TestRealBoraOpenTouchesNoData matches the model's central claim: the
// BORA-assisted open reads no message data and no per-message index.
func TestRealBoraOpenTouchesNoData(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.bag")
	if _, err := workload.WriteHandheldSLAMBag(src, workload.SyntheticOptions{Seconds: 2, ScaleDown: 4000}); err != nil {
		t.Fatal(err)
	}
	backend, err := core.New(filepath.Join(dir, "backend"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := backend.Duplicate(src, "v"); err != nil {
		t.Fatal(err)
	}
	bag, err := backend.Open("v")
	if err != nil {
		t.Fatal(err)
	}
	st := bag.Stats()
	if st.BytesRead != 0 || st.EntriesScanned != 0 || st.MessagesRead != 0 {
		t.Errorf("open touched data: %+v", st)
	}
	if bag.TagTable().Len() != 7 {
		t.Errorf("tag table has %d entries", bag.TagTable().Len())
	}
}

// TestRealBaselineOpenScansAllChunkInfos matches the model's baseline
// open: the full chunk-info list is traversed.
func TestRealBaselineOpenScansAllChunkInfos(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.bag")
	if _, err := workload.WriteHandheldSLAMBag(src, workload.SyntheticOptions{
		Seconds: 2, ScaleDown: 4000, Writer: rosbag.WriterOptions{ChunkThreshold: 32 * 1024},
	}); err != nil {
		t.Fatal(err)
	}
	r, f, err := rosbag.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if r.Stats().ChunkInfosScanned != r.ChunkCount() {
		t.Errorf("open scanned %d of %d chunk infos", r.Stats().ChunkInfosScanned, r.ChunkCount())
	}
	if r.ChunkCount() < 5 {
		t.Errorf("bag has only %d chunks; test needs a chunked bag", r.ChunkCount())
	}
}
