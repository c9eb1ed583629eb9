// Package swarm implements the robotic-swarm analysis scenario of the
// paper's Tianhe-1A evaluation (Section IV-E): N robots each contribute
// one bag; N processes open all bags simultaneously and run the Robot
// SLAM extraction (Depth Image, RGB Image, IMU) — e.g. to build a
// multi-angle object view ("Bullet Time" effect).
//
// Two harnesses are provided. Sim replays the paper-scale experiment
// (10/50/100 robots × 21/42 GB bags) on the Lustre cost model; every
// swarm process is statistically identical, so per-process virtual time
// under the contention model equals the swarm's wall-clock time. Real
// runs an actual concurrent extraction over small on-disk bags through
// the real BORA core, validating that the concurrent access paths are
// correct.
package swarm

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/pathsim"
	"repro/internal/rosbag"
	"repro/internal/workload"
)

// SimConfig parameterizes a paper-scale swarm simulation.
type SimConfig struct {
	Robots     int   // number of robots = bags = concurrent processes
	BagBytes   int64 // per-bag size (21 GB or 42 GB in Fig 17)
	Topics     []string
	TimeWindow time.Duration
	// TimeRangeNs optionally restricts the query (Fig 18); zero means a
	// full-topic extraction (Fig 17).
	TimeStartNs int64
	TimeEndNs   int64
}

// SimResult reports per-swarm wall-clock virtual times.
type SimResult struct {
	Robots        int
	BagBytes      int64
	BaselineOpen  time.Duration
	BoraOpen      time.Duration
	BaselineQuery time.Duration
	BoraQuery     time.Duration
}

// OpenImprovement returns baseline/BORA open ratio.
func (r SimResult) OpenImprovement() float64 {
	return float64(r.BaselineOpen) / float64(r.BoraOpen)
}

// QueryImprovement returns baseline/BORA query ratio.
func (r SimResult) QueryImprovement() float64 {
	return float64(r.BaselineQuery) / float64(r.BoraQuery)
}

// Sim runs the swarm scenario on the Lustre cost model.
func Sim(cfg SimConfig) (SimResult, error) {
	if cfg.Robots <= 0 {
		return SimResult{}, fmt.Errorf("swarm: non-positive robot count %d", cfg.Robots)
	}
	if len(cfg.Topics) == 0 {
		app, err := workload.AppByAbbrev("RS")
		if err != nil {
			return SimResult{}, err
		}
		cfg.Topics = app.Topics
	}
	if cfg.TimeWindow <= 0 {
		cfg.TimeWindow = time.Second
	}
	bag, err := workload.HandheldSLAMBag(cfg.BagBytes)
	if err != nil {
		return SimResult{}, err
	}
	res := SimResult{Robots: cfg.Robots, BagBytes: cfg.BagBytes}

	mkEnv := func() *cluster.Lustre {
		l := cluster.NewLustre()
		l.Clients = cfg.Robots
		return l
	}
	timeQuery := cfg.TimeEndNs > cfg.TimeStartNs

	be := mkEnv()
	res.BaselineOpen = pathsim.BaselineOpen(be, bag)
	if timeQuery {
		res.BaselineQuery = pathsim.BaselineQueryTime(be, bag, cfg.Topics, cfg.TimeStartNs, cfg.TimeEndNs)
	} else {
		res.BaselineQuery = pathsim.BaselineQueryTopics(be, bag, cfg.Topics)
	}

	bo := mkEnv()
	res.BoraOpen = pathsim.BoraOpen(bo, bag)
	if timeQuery {
		res.BoraQuery = pathsim.BoraQueryTime(bo, bag, cfg.Topics, cfg.TimeStartNs, cfg.TimeEndNs, cfg.TimeWindow)
	} else {
		res.BoraQuery = pathsim.BoraQueryTopics(bo, bag, cfg.Topics)
	}
	return res, nil
}

// simBag exposes the layout used by Sim for inspection.
func simBag(bagBytes int64) (*layout.Bag, error) {
	return workload.HandheldSLAMBag(bagBytes)
}

// RealConfig parameterizes a real concurrent extraction over small bags.
type RealConfig struct {
	Robots  int
	Seconds int // per-bag synthetic recording length
	Topics  []string
	Dir     string // working directory (bags + containers)
}

// RealResult summarizes a real swarm run.
type RealResult struct {
	Robots       int
	MessagesRead int
	BytesRead    int64
	OpenTime     time.Duration
	QueryTime    time.Duration
}

// Real records Robots small bags, duplicates each into a BORA container,
// then launches one goroutine per robot that opens its bag and extracts
// the Robot SLAM topics concurrently.
func Real(cfg RealConfig) (RealResult, error) {
	if cfg.Robots <= 0 {
		return RealResult{}, fmt.Errorf("swarm: non-positive robot count %d", cfg.Robots)
	}
	if cfg.Seconds <= 0 {
		cfg.Seconds = 1
	}
	if len(cfg.Topics) == 0 {
		app, err := workload.AppByAbbrev("RS")
		if err != nil {
			return RealResult{}, err
		}
		cfg.Topics = app.Topics
	}
	backend, err := core.New(filepath.Join(cfg.Dir, "backend"), core.Options{})
	if err != nil {
		return RealResult{}, err
	}
	// Record and organize one bag per robot (the duplication is the
	// one-time ingest step, not the measured phase).
	for i := 0; i < cfg.Robots; i++ {
		src := filepath.Join(cfg.Dir, fmt.Sprintf("robot%03d.bag", i))
		if _, err := workload.WriteHandheldSLAMBag(src, workload.SyntheticOptions{
			Seconds:   cfg.Seconds,
			ScaleDown: 4000,
			Seed:      int64(i + 1),
			Writer:    rosbag.WriterOptions{ChunkThreshold: 64 * 1024},
		}); err != nil {
			return RealResult{}, err
		}
		if _, _, err := backend.Duplicate(src, fmt.Sprintf("robot%03d", i)); err != nil {
			return RealResult{}, err
		}
	}

	res := RealResult{Robots: cfg.Robots}
	// Phase 1: all processes open their bags simultaneously.
	bags := make([]*core.Bag, cfg.Robots)
	openStart := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, cfg.Robots)
	for i := 0; i < cfg.Robots; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bags[i], errs[i] = backend.Open(fmt.Sprintf("robot%03d", i))
		}(i)
	}
	wg.Wait()
	res.OpenTime = time.Since(openStart)
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}

	// Phase 2: concurrent Robot SLAM extraction.
	counts := make([]int, cfg.Robots)
	bytes := make([]int64, cfg.Robots)
	queryStart := time.Now()
	for i := 0; i < cfg.Robots; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = bags[i].Query(core.QuerySpec{Topics: cfg.Topics}, func(m core.MessageRef) error {
				counts[i]++
				bytes[i] += int64(len(m.Data))
				return nil
			})
		}(i)
	}
	wg.Wait()
	res.QueryTime = time.Since(queryStart)
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	for i := range counts {
		res.MessagesRead += counts[i]
		res.BytesRead += bytes[i]
	}
	return res, nil
}
