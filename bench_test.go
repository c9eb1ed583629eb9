// Root benchmark harness: one testing.B benchmark per table/figure of
// the paper (wrapping the runners in internal/bench) plus real
// micro-benchmarks of the core data structures. The experiment
// benchmarks report the regenerated virtual times as custom metrics;
// run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bagio"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/msgs"
	"repro/internal/rosbag"
	"repro/internal/tagman"
	"repro/internal/timeindex"
	"repro/internal/workload"
)

// benchExperiment wraps one internal/bench runner as a testing.B target.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var rows int
	for i := 0; i < b.N; i++ {
		t, err := bench.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(t.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkTable1TagBuild(b *testing.B)    { benchExperiment(b, "table1") }
func BenchmarkFig2Insertion(b *testing.B)     { benchExperiment(b, "fig2") }
func BenchmarkFig3PLFS(b *testing.B)          { benchExperiment(b, "fig3") }
func BenchmarkFig9Duplication(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10QueryByTopic(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11AppsSmall(b *testing.B)    { benchExperiment(b, "fig11") }
func BenchmarkFig12AppsLarge(b *testing.B)    { benchExperiment(b, "fig12") }
func BenchmarkFig13TimeQuery(b *testing.B)    { benchExperiment(b, "fig13") }
func BenchmarkFig14AppsTime(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkFig15PVFS(b *testing.B)         { benchExperiment(b, "fig15") }
func BenchmarkFig16PVFSTime(b *testing.B)     { benchExperiment(b, "fig16") }
func BenchmarkFig17Swarm(b *testing.B)        { benchExperiment(b, "fig17") }
func BenchmarkFig18SwarmTime(b *testing.B)    { benchExperiment(b, "fig18") }
func BenchmarkAblationWindow(b *testing.B)    { benchExperiment(b, "ablation-window") }
func BenchmarkAblationChunkSize(b *testing.B) { benchExperiment(b, "ablation-chunk") }

// --- real micro-benchmarks of the core structures ---

// BenchmarkTagmanBuild10k measures on-the-fly tag-table construction
// (the operation Table I times) at 10,000 topics.
func BenchmarkTagmanBuild10k(b *testing.B) {
	paths := make(map[string]string, 10_000)
	for i := 0; i < 10_000; i++ {
		topic := fmt.Sprintf("/topic%05d", i)
		paths[topic] = "/mnt/bora/bag" + topic
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := tagman.Build(paths)
		if t.Len() != 10_000 {
			b.Fatal("bad build")
		}
	}
}

// BenchmarkTagmanLookup measures the per-query hash lookup of Fig 7.
func BenchmarkTagmanLookup(b *testing.B) {
	t := tagman.New(1000)
	for i := 0; i < 1000; i++ {
		t.Put(fmt.Sprintf("/topic%04d", i), "/mnt/x")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := t.Get("/topic0500"); !ok {
			b.Fatal("missing")
		}
	}
}

// BenchmarkTimeIndexQuery measures a coarse-grain window query over a
// 100k-message topic.
func BenchmarkTimeIndexQuery(b *testing.B) {
	times := make([]bagio.Time, 100_000)
	for i := range times {
		times[i] = bagio.TimeFromNanos(int64(i) * 2_000_000) // 500 Hz
	}
	ix := timeindex.Build(time.Second, times)
	start := bagio.TimeFromNanos(50 * 1e9)
	end := start.Add(5 * time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ix.QuerySorted(start, end); len(got) == 0 {
			b.Fatal("empty query")
		}
	}
}

// BenchmarkRosbagWrite measures the recorder's message append path.
func BenchmarkRosbagWrite(b *testing.B) {
	dir := b.TempDir()
	imu := &msgs.Imu{Header: msgs.Header{FrameID: "/imu"}, Orientation: msgs.Identity()}
	wire := imu.Marshal(nil)
	b.SetBytes(int64(len(wire)))
	w, f, err := rosbag.Create(filepath.Join(dir, "bench.bag"), rosbag.WriterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	conn, err := w.AddConnection("/imu", "sensor_msgs/Imu")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WriteMessage(conn, bagio.Time{Sec: uint32(i)}, wire); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	f.Close()
}

// realBagFixture builds one organized container shared by read benches.
type realBagFixture struct {
	backend *core.BORA
	name    string
}

var fixture *realBagFixture

func fixtureBag(b *testing.B) *core.Bag {
	b.Helper()
	if fixture == nil {
		dir, err := os.MkdirTemp("", "bora-bench-")
		if err != nil {
			b.Fatal(err)
		}
		src := filepath.Join(dir, "src.bag")
		if _, err := workload.WriteHandheldSLAMBag(src, workload.SyntheticOptions{Seconds: 3, ScaleDown: 2000}); err != nil {
			b.Fatal(err)
		}
		backend, err := core.New(filepath.Join(dir, "backend"), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := backend.Duplicate(src, "bench"); err != nil {
			b.Fatal(err)
		}
		fixture = &realBagFixture{backend: backend, name: "bench"}
	}
	bag, err := fixture.backend.Open(fixture.name)
	if err != nil {
		b.Fatal(err)
	}
	return bag
}

// BenchmarkBoraOpenReal measures the real BORA-assisted open (Fig 4b).
func BenchmarkBoraOpenReal(b *testing.B) {
	fixtureBag(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fixture.backend.Open(fixture.name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBoraQueryTopicReal measures a real per-topic acquisition.
func BenchmarkBoraQueryTopicReal(b *testing.B) {
	bag := fixtureBag(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		err := bag.Query(core.QuerySpec{Topics: []string{workload.TopicIMU}}, func(core.MessageRef) error {
			count++
			return nil
		})
		if err != nil || count == 0 {
			b.Fatalf("count=%d err=%v", count, err)
		}
	}
}

// BenchmarkBoraTimeQueryReal measures a real window-bounded time query.
func BenchmarkBoraTimeQueryReal(b *testing.B) {
	bag := fixtureBag(b)
	start := bagio.TimeFromNanos(int64(1_500_000_000)*1e9 + 5e8)
	end := start.Add(time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		err := bag.Query(core.QuerySpec{Topics: []string{workload.TopicIMU}, Start: start, End: end}, func(core.MessageRef) error {
			count++
			return nil
		})
		if err != nil || count == 0 {
			b.Fatalf("count=%d err=%v", count, err)
		}
	}
}

func BenchmarkTable2Workload(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkTable3Apps(b *testing.B)       { benchExperiment(b, "table3") }
func BenchmarkTable4Middleware(b *testing.B) { benchExperiment(b, "table4") }

func BenchmarkAblationRebag(b *testing.B)       { benchExperiment(b, "ablation-rebag") }
func BenchmarkAblationCompression(b *testing.B) { benchExperiment(b, "ablation-compression") }
