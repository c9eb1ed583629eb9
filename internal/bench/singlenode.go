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
	register("fig9", runFig9)
	register("fig10", runFig10)
	register("fig11", func(reg *obs.Registry) (*Table, error) { return runAppsQuery("fig11", 2_900_000_000, reg) })
	register("fig12", func(reg *obs.Registry) (*Table, error) { return runAppsQuery("fig12", 21_000_000_000, reg) })
	register("fig13", runFig13)
	register("fig14", runFig14)
}

const simWindow = time.Second

// topicByID maps the paper's Table II topic letters to names.
var topicByID = map[string]string{
	"A": workload.TopicDepthImage,
	"B": workload.TopicRGBImage,
	"C": workload.TopicRGBCameraInfo,
	"D": workload.TopicDepthCameraInfo,
	"E": workload.TopicMarkerArray,
	"F": workload.TopicIMU,
	"G": workload.TopicTF,
}

// runFig9 regenerates the bag-duplication comparison: native copies vs
// the BORA initial capture vs BORA-to-BORA copies, on Ext4 and XFS.
func runFig9(reg *obs.Registry) (*Table, error) {
	t := &Table{
		ID:     "fig9",
		Title:  "Write time of bags with distinct sizes (duplication)",
		Header: []string{"size", "ext4", "bora-on-ext4", "overhead", "xfs", "bora-on-xfs", "overhead", "b2b-ext4"},
		Notes: []string{
			"paper: worst-case overhead 50% (ext4) / 90% (xfs); average 26% / 51%;",
			"≤10% / 22% beyond 3.9GB; BORA-to-BORA ≈ native",
		},
	}
	for _, size := range []int64{700_000_000, 1_400_000_000, 2_200_000_000, 2_900_000_000, 3_900_000_000, 7_800_000_000} {
		bag, err := workload.HandheldSLAMBag(size)
		if err != nil {
			return nil, err
		}
		copyTime := func(p simio.Profile) time.Duration {
			env := newLocalEnv(p, reg)
			return pathsim.BaselineRead(env, bag) + pathsim.BaselineWrite(env, bag)
		}
		ext4 := copyTime(simio.SingleNodeSSD())
		xfs := copyTime(simio.SingleNodeXFS())
		boraExt4 := pathsim.BoraDuplicate(newLocalEnv(simio.SingleNodeSSD(), reg), bag)
		boraXFS := pathsim.BoraDuplicate(newLocalEnv(simio.SingleNodeXFS(), reg), bag)
		b2b := pathsim.BoraCopyContainer(newLocalEnv(simio.SingleNodeSSD(), reg), bag)
		t.Rows = append(t.Rows, []string{
			fmtGB(size),
			fmtDur(ext4), fmtDur(boraExt4), fmt.Sprintf("%.0f%%", (float64(boraExt4)/float64(ext4)-1)*100),
			fmtDur(xfs), fmtDur(boraXFS), fmt.Sprintf("%.0f%%", (float64(boraXFS)/float64(xfs)-1)*100),
			fmtDur(b2b),
		})
	}
	return t, nil
}

// newLocalEnv builds a LocalEnv whose virtual clock records to reg:
// per-op SIM-TIME histograms (and trace spans, when reg carries a
// tracer) under the same op names the real path uses — core.open,
// core.read, core.read_topic, rosbag.open, rosbag.read, ... A nil reg
// leaves the clock unattached.
func newLocalEnv(p simio.Profile, reg *obs.Registry) *simio.LocalEnv {
	env := simio.NewLocalEnv(p)
	env.Clock().AttachObs(reg)
	return env
}

// queryPair runs open+query on both paths over a local profile. The
// end-to-end simulated durations are recorded to reg under pathsim.*
// (virtual-clock times, Observed rather than span-timed); the clocks
// are obs-attached, so the per-op breakdown lands under the real-path
// op names as sim-time histograms.
func queryPair(p simio.Profile, bag *layout.Bag, topics []string, reg *obs.Registry) (base, bora time.Duration) {
	be := newLocalEnv(p, reg)
	pathsim.BaselineOpen(be, bag)
	pathsim.BaselineQueryTopics(be, bag, topics)
	bo := newLocalEnv(p, reg)
	pathsim.BoraOpen(bo, bag)
	pathsim.BoraQueryTopics(bo, bag, topics)
	base, bora = be.Clock().Elapsed(), bo.Clock().Elapsed()
	reg.Op("pathsim.baseline_query").Observe(base, bag.TotalBytes)
	reg.Op("pathsim.bora_query").Observe(bora, bag.TotalBytes)
	return base, bora
}

// runFig10 regenerates query-by-topic on the single-node server for the
// four bag sizes of Fig 10 and topics A, B, C, E, F.
func runFig10(reg *obs.Registry) (*Table, error) {
	t := &Table{
		ID:     "fig10",
		Title:  "Query time by topic, Handheld SLAM bags, single-node server (Ext4)",
		Header: []string{"bag size", "topic", "baseline", "bora", "improvement"},
		Notes: []string{
			"paper: ~50% average improvement, ~5x on small structured topic C",
		},
	}
	for _, size := range []int64{2_900_000_000, 7_200_000_000, 13_800_000_000, 20_300_000_000} {
		bag, err := workload.HandheldSLAMBag(size)
		if err != nil {
			return nil, err
		}
		for _, id := range []string{"A", "B", "C", "E", "F"} {
			base, bora := queryPair(simio.SingleNodeSSD(), bag, []string{topicByID[id]}, reg)
			t.Rows = append(t.Rows, []string{
				fmtGB(size), id, fmtDur(base), fmtDur(bora), fmtRatio(base, bora),
			})
		}
	}
	return t, nil
}

// runAppsQuery regenerates Figs 11 (small bag) and 12 (large bag): the
// four Table III applications on Ext4 and XFS.
func runAppsQuery(id string, size int64, reg *obs.Registry) (*Table, error) {
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("Query time by topics, four applications, %s bag, single-node server", fmtGB(size)),
		Header: []string{"app", "fs", "baseline", "bora", "improvement"},
		Notes: []string{
			"paper: >70% average improvement at 2.9GB, >50% at 21GB, all four apps win",
		},
	}
	bag, err := workload.HandheldSLAMBag(size)
	if err != nil {
		return nil, err
	}
	for _, app := range workload.Apps() {
		for _, p := range []simio.Profile{simio.SingleNodeSSD(), simio.SingleNodeXFS()} {
			base, bora := queryPair(p, bag, app.Topics, reg)
			t.Rows = append(t.Rows, []string{
				app.Abbrev, p.Dev.Name, fmtDur(base), fmtDur(bora), fmtRatio(base, bora),
			})
		}
	}
	return t, nil
}

// timeQueryPair runs open + (topics, start–end) query on both paths,
// recording the simulated durations like queryPair.
func timeQueryPair(p simio.Profile, bag *layout.Bag, topics []string, startNs, endNs int64, reg *obs.Registry) (base, bora time.Duration) {
	be := newLocalEnv(p, reg)
	pathsim.BaselineOpen(be, bag)
	pathsim.BaselineQueryTime(be, bag, topics, startNs, endNs)
	bo := newLocalEnv(p, reg)
	pathsim.BoraOpen(bo, bag)
	pathsim.BoraQueryTime(bo, bag, topics, startNs, endNs, simWindow)
	base, bora = be.Clock().Elapsed(), bo.Clock().Elapsed()
	reg.Op("pathsim.baseline_query_time").Observe(base, bag.TotalBytes)
	reg.Op("pathsim.bora_query_time").Observe(bora, bag.TotalBytes)
	return base, bora
}

// stairSteps yields the Fig 13/14 stair-step end times: fixed start,
// end advancing in 5-second intervals until the whole bag is covered.
func stairSteps(bag *layout.Bag) []int64 {
	var out []int64
	step := 5 * int64(time.Second)
	for end := step; end < bag.DurationNs; end += step {
		out = append(out, end)
		if len(out) >= 6 { // keep the table readable; last row covers all
			break
		}
	}
	return append(out, bag.DurationNs)
}

// runFig13 regenerates query by one topic + start–end time on the 21 GB
// bag.
func runFig13(reg *obs.Registry) (*Table, error) {
	t := &Table{
		ID:     "fig13",
		Title:  "Query time by one topic and start-end time, Handheld SLAM 21GB, single node",
		Header: []string{"topic", "end time", "baseline", "bora", "improvement"},
		Notes: []string{
			"paper: up to 11x (camera_info); still ~2x when the window covers the whole bag",
		},
	}
	bag, err := workload.HandheldSLAMBag(21_000_000_000)
	if err != nil {
		return nil, err
	}
	for _, id := range []string{"A", "B", "C", "F"} {
		for _, end := range stairSteps(bag) {
			base, bora := timeQueryPair(simio.SingleNodeSSD(), bag, []string{topicByID[id]}, 0, end, reg)
			t.Rows = append(t.Rows, []string{
				id, fmtDur(time.Duration(end)), fmtDur(base), fmtDur(bora), fmtRatio(base, bora),
			})
		}
	}
	return t, nil
}

// runFig14 regenerates query by application topics + start–end time.
func runFig14(reg *obs.Registry) (*Table, error) {
	t := &Table{
		ID:     "fig14",
		Title:  "Query time by topics and start-end time, four applications, single node",
		Header: []string{"app", "end time", "baseline", "bora", "improvement"},
		Notes: []string{
			"paper: up to 3.5x in multiple-topic time queries",
		},
	}
	bag, err := workload.HandheldSLAMBag(21_000_000_000)
	if err != nil {
		return nil, err
	}
	for _, app := range workload.Apps() {
		for _, end := range stairSteps(bag) {
			base, bora := timeQueryPair(simio.SingleNodeSSD(), bag, app.Topics, 0, end, reg)
			t.Rows = append(t.Rows, []string{
				app.Abbrev, fmtDur(time.Duration(end)), fmtDur(base), fmtDur(bora), fmtRatio(base, bora),
			})
		}
	}
	return t, nil
}
