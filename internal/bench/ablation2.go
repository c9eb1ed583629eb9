package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bagio"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rosbag"
	"repro/internal/workload"
)

func init() {
	register("ablation-rebag", runAblationRebag)
	register("ablation-compression", runAblationCompression)
}

// runAblationRebag compares the two rebagging paths on real files: the
// stock filter (open + indexed read + full bag re-write) against BORA's
// container-to-container Rebag.
func runAblationRebag(reg *obs.Registry) (*Table, error) {
	t := &Table{
		ID:     "ablation-rebag",
		Title:  "Rebagging: stock bag filter vs BORA container-to-container Rebag (real)",
		Header: []string{"selection", "stock filter", "bora rebag", "speedup", "kept"},
		Notes: []string{
			"real wall-clock on a scaled-down Handheld SLAM bag",
		},
	}
	dir, err := os.MkdirTemp("", "bora-rebag-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	src := filepath.Join(dir, "src.bag")
	if _, err := workload.WriteHandheldSLAMBag(src, workload.SyntheticOptions{
		Seconds: 6, ScaleDown: 2000,
		Writer: rosbag.WriterOptions{ChunkThreshold: 64 * 1024},
	}); err != nil {
		return nil, err
	}
	backend, err := core.New(filepath.Join(dir, "backend"), core.Options{TimeWindow: 500 * time.Millisecond, Obs: reg})
	if err != nil {
		return nil, err
	}
	full, _, err := backend.Duplicate(src, "full")
	if err != nil {
		return nil, err
	}
	base := bagio.TimeFromNanos(int64(1_500_000_000) * 1e9)
	cases := []struct {
		label  string
		topics []string
		start  bagio.Time
		end    bagio.Time
	}{
		{"imu only", []string{workload.TopicIMU}, bagio.Time{}, bagio.Time{}},
		{"tf+markers, 2s window", []string{workload.TopicTF, workload.TopicMarkerArray}, base.Add(time.Second), base.Add(3 * time.Second)},
	}
	for i, qc := range cases {
		// Stock path.
		in, err := os.Open(src)
		if err != nil {
			return nil, err
		}
		st, err := in.Stat()
		if err != nil {
			in.Close()
			return nil, err
		}
		outPath := filepath.Join(dir, fmt.Sprintf("stock%d.bag", i))
		of, err := os.Create(outPath)
		if err != nil {
			in.Close()
			return nil, err
		}
		stockStart := time.Now()
		stockKept, err := rosbag.Filter(in, st.Size(), of,
			rosbag.Query{Topics: qc.topics, Start: qc.start, End: qc.end}, nil, rosbag.WriterOptions{})
		stockTime := time.Since(stockStart)
		in.Close()
		of.Close()
		if err != nil {
			return nil, err
		}

		// BORA path.
		boraStart := time.Now()
		_, boraKept, err := backend.Rebag(full, fmt.Sprintf("sub%d", i), core.QuerySpec{
			Topics: qc.topics, Start: qc.start, End: qc.end,
		})
		boraTime := time.Since(boraStart)
		if err != nil {
			return nil, err
		}
		if uint64(boraKept) != stockKept {
			return nil, fmt.Errorf("ablation-rebag: %s: stock kept %d, bora kept %d", qc.label, stockKept, boraKept)
		}
		t.Rows = append(t.Rows, []string{
			qc.label, fmtDur(stockTime), fmtDur(boraTime),
			fmtRatio(stockTime, boraTime), fmt.Sprintf("%d", boraKept),
		})
	}
	return t, nil
}

// runAblationCompression sweeps the recorder's chunk compression on real
// files: the gz scheme trades write/scan CPU for bytes, which matters
// because BORA's duplication pass must decompress every chunk once.
func runAblationCompression(reg *obs.Registry) (*Table, error) {
	t := &Table{
		ID:     "ablation-compression",
		Title:  "Recorder chunk compression: bag size vs duplication cost (real)",
		Header: []string{"compression", "bag bytes", "record time", "duplicate time"},
		Notes: []string{
			"real wall-clock; synthetic image payloads are random (incompressible),",
			"structured topics compress",
		},
	}
	dir, err := os.MkdirTemp("", "bora-compress-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	for _, comp := range []string{bagio.CompressionNone, bagio.CompressionGZ} {
		src := filepath.Join(dir, "src-"+comp+".bag")
		recStart := time.Now()
		if _, err := workload.WriteHandheldSLAMBag(src, workload.SyntheticOptions{
			Seconds: 3, ScaleDown: 2000,
			Writer: rosbag.WriterOptions{ChunkThreshold: 64 * 1024, Compression: comp},
		}); err != nil {
			return nil, err
		}
		recTime := time.Since(recStart)
		st, err := os.Stat(src)
		if err != nil {
			return nil, err
		}
		backend, err := core.New(filepath.Join(dir, "backend-"+comp), core.Options{Obs: reg})
		if err != nil {
			return nil, err
		}
		dupStart := time.Now()
		if _, _, err := backend.Duplicate(src, "bag"); err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			comp, fmt.Sprintf("%d", st.Size()), fmtDur(recTime), fmtDur(time.Since(dupStart)),
		})
	}
	return t, nil
}
