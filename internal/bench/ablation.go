package bench

import (
	"fmt"
	"time"

	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/pathsim"
	"repro/internal/simio"
	"repro/internal/workload"
)

func init() {
	register("ablation-window", runAblationWindow)
	register("ablation-chunk", runAblationChunk)
}

// runAblationWindow sweeps the coarse time-index window width (DESIGN.md
// §5): small windows bound time queries tightly but cost more index
// bytes; large windows over-read at the boundaries.
func runAblationWindow(reg *obs.Registry) (*Table, error) {
	t := &Table{
		ID:     "ablation-window",
		Title:  "Coarse time-index window width vs time-query cost (21GB bag, 5s query)",
		Header: []string{"window", "narrow query", "full query"},
		Notes: []string{
			"design choice of Fig 8: 'the value of the time window can be configured by a developer'",
		},
	}
	bag, err := workload.HandheldSLAMBag(21_000_000_000)
	if err != nil {
		return nil, err
	}
	topics := []string{workload.TopicIMU}
	for _, w := range []time.Duration{250 * time.Millisecond, time.Second, 5 * time.Second, 30 * time.Second} {
		narrow := pathsim.BoraQueryTime(simio.NewLocalEnv(simio.SingleNodeSSD()), bag, topics, 0, 5*int64(time.Second), w)
		full := pathsim.BoraQueryTime(simio.NewLocalEnv(simio.SingleNodeSSD()), bag, topics, 0, bag.DurationNs, w)
		t.Rows = append(t.Rows, []string{w.String(), fmtDur(narrow), fmtDur(full)})
	}
	return t, nil
}

// runAblationChunk sweeps the recorder's chunk threshold: smaller chunks
// mean a longer chunk-info list, which is exactly the baseline's O(N)
// open cost — BORA's open is independent of it.
func runAblationChunk(reg *obs.Registry) (*Table, error) {
	t := &Table{
		ID:     "ablation-chunk",
		Title:  "Recorder chunk threshold vs baseline open cost (21GB bag)",
		Header: []string{"chunk size", "chunks", "baseline open", "bora open"},
		Notes: []string{
			"baseline open is O(chunk count); BORA's open does not touch chunks at all",
		},
	}
	for _, threshold := range []int64{128 * 1024, 768 * 1024, 4 * 1024 * 1024, 16 * 1024 * 1024} {
		bag, err := layout.Generate(workload.HandheldSLAMSpecs(), 21_000_000_000, threshold)
		if err != nil {
			return nil, err
		}
		base := pathsim.BaselineOpen(simio.NewLocalEnv(simio.SingleNodeSSD()), bag)
		bora := pathsim.BoraOpen(simio.NewLocalEnv(simio.SingleNodeSSD()), bag)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dKB", threshold/1024), fmt.Sprintf("%d", len(bag.Chunks)),
			fmtDur(base), fmtDur(bora),
		})
	}
	return t, nil
}
