package bench

import (
	"fmt"
	"os"
	"time"

	"repro/internal/bagio"
	"repro/internal/build"
	"repro/internal/core"
	"repro/internal/obs"
)

func init() {
	register("dataset-build", runDatasetBuild)
}

// datasetBuildGraph is the experiment's 10-derivation DAG: two
// independent sources, a 3-deep derivation chain plus a windowed pair
// off srcA, a mirrored fan off srcB. Touching srcA must rerun exactly
// the five srcA-rooted derivations.
func datasetBuildGraph() (*build.Graph, error) {
	base := float64(1_600_000_000)
	f := func(v float64) *float64 { return &v }
	return build.NewGraph([]build.Derivation{
		{Name: "a-imu", From: "srcA", TransformSpec: core.TransformSpec{Topics: []string{"/imu"}}},
		{Name: "a-imu-half", From: "a-imu", TransformSpec: core.TransformSpec{Stride: 2}},
		{Name: "a-imu-quarter", From: "a-imu-half", TransformSpec: core.TransformSpec{Stride: 2}},
		{Name: "a-early", From: "srcA", TransformSpec: core.TransformSpec{StartSec: f(base), EndSec: f(base + 2)}},
		{Name: "a-early-sparse", From: "a-early", TransformSpec: core.TransformSpec{Stride: 4}},
		{Name: "b-cam", From: "srcB", TransformSpec: core.TransformSpec{Topics: []string{"/camera"}}},
		{Name: "b-cam-half", From: "b-cam", TransformSpec: core.TransformSpec{Stride: 2}},
		{Name: "b-late", From: "srcB", TransformSpec: core.TransformSpec{StartSec: f(base + 2)}},
		{Name: "b-late-half", From: "b-late", TransformSpec: core.TransformSpec{Stride: 2}},
		{Name: "b-late-quarter", From: "b-late-half", TransformSpec: core.TransformSpec{Stride: 2}},
	})
}

// recordBuildSource records msgs messages each of /imu (small) and
// /camera (payload-byte) under name, 100Hz from the experiment epoch.
func recordBuildSource(b *core.BORA, name string, msgs, payload int, seed byte) error {
	rec, err := b.CreateBag(name)
	if err != nil {
		return err
	}
	imu := make([]byte, 32)
	cam := make([]byte, payload)
	imu[0], cam[0] = seed, seed
	base := int64(1_600_000_000) * 1e9
	for i := 0; i < msgs; i++ {
		ts := bagio.TimeFromNanos(base + int64(i)*1e7)
		if err := rec.WriteRaw("/imu", "sensor_msgs/Imu", ts, imu); err != nil {
			return err
		}
		if err := rec.WriteRaw("/camera", "sensor_msgs/CompressedImage", ts, cam); err != nil {
			return err
		}
	}
	_, err = rec.Close()
	return err
}

// runDatasetBuild measures the artifact build system's incremental
// property: a cold 10-derivation build, an identical no-op re-build
// (every derivation a content-address cache hit), and a re-build after
// touching one of the two sources (exactly the five derivations rooted
// in it rerun). Each phase's count assertions are part of the
// experiment — a wrong rebuild set fails the run, not just the table.
func runDatasetBuild(reg *obs.Registry) (*Table, error) {
	const (
		sourceMsgs = 4000
		camPayload = 2048
	)
	dir, err := os.MkdirTemp("", "bora-datasetbuild-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b, err := core.New(dir, core.Options{Obs: reg})
	if err != nil {
		return nil, err
	}
	for _, src := range []string{"srcA", "srcB"} {
		if err := recordBuildSource(b, src, sourceMsgs, camPayload, 1); err != nil {
			return nil, err
		}
	}
	g, err := datasetBuildGraph()
	if err != nil {
		return nil, err
	}
	bld := build.New(b, build.Options{Workers: 4})

	t := &Table{
		ID:     "dataset-build",
		Title:  "Artifact builds: content-addressed derivations, incremental rebuilds",
		Header: []string{"phase", "derivations", "rebuilt", "cached", "materialized", "wall", "vs cold"},
		Notes: []string{
			fmt.Sprintf("10-derivation DAG over two sources (%d msgs each, %dB camera payloads), derivation chains 3 deep", sourceMsgs, camPayload),
			"cache key = sha256(source name, source generation token, canonical transform); no timestamps or dirty bits",
			"touch-one re-records srcA: the five srcA-rooted derivations rerun, the five srcB-rooted ones stay cached",
		},
	}
	var phases []Phase
	prev := reg.Snapshot()
	var coldWall time.Duration
	for _, ph := range []struct {
		label        string
		phase        string // sidecar-safe phase name
		prep         func() error
		wantRebuilt  int
		wantRebuiltS string
	}{
		{"cold", "cold", nil, 10, "all"},
		{"no-op rebuild", "noop", nil, 0, "none"},
		{"touch one source", "touch-one", func() error {
			if err := b.Remove("srcA"); err != nil {
				return err
			}
			return recordBuildSource(b, "srcA", sourceMsgs, camPayload, 2)
		}, 5, "srcA's five"},
	} {
		if ph.prep != nil {
			if err := ph.prep(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		results, err := bld.Build(g)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		var rebuilt, cached int
		var bytes int64
		for _, r := range results {
			if r.Rebuilt {
				rebuilt++
				bytes += r.Bytes
			} else {
				cached++
			}
		}
		if rebuilt != ph.wantRebuilt {
			return nil, fmt.Errorf("dataset-build: %s phase rebuilt %d derivations, want %d (%s)", ph.label, rebuilt, ph.wantRebuilt, ph.wantRebuiltS)
		}
		if ph.label == "cold" {
			coldWall = wall
		}
		t.Rows = append(t.Rows, []string{
			ph.label,
			fmt.Sprintf("%d", len(results)),
			fmt.Sprintf("%d", rebuilt),
			fmt.Sprintf("%d", cached),
			fmt.Sprintf("%.1fMB", float64(bytes)/1e6),
			fmtDur(wall),
			fmtRatio(coldWall, wall),
		})
		if reg != nil {
			snap := reg.Snapshot()
			phases = append(phases, Phase{Name: ph.phase, Snap: snap.Delta(prev)})
			prev = snap
		}
	}
	t.Phases = phases
	return t, nil
}
