package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/obs"
)

// dataRoot is where every run keeps its data: inside the checkout, in
// the build directory .gitignore names. Each run makes a fresh
// directory under it and removes it on exit.
const dataRoot = ".bench_build/data"

// traceDir receives one Chrome trace per traced run.
const traceDir = ".bench_build/trace"

const (
	setupRepeats   = 3 // set-ups per plain run; setup_s is their median
	minRounds      = 3 // measured rounds per instance, however short --seconds is
	traceRingSlots = 1 << 17
)

// report is everything one run of one workload measured.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Host      hostInfo           `json:"host"`
	Rounds    int                `json:"rounds"`
	Attempted int                `json:"ops_attempted"`
	Failed    int                `json:"ops_failed"`
	Failure   string             `json:"first_failure,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	// Samples is how many op latencies op_p50_ms is the median of, and
	// RoundRates the per-round rates msgs_per_s is the median of.
	Samples    int       `json:"op_samples"`
	RoundRates []float64 `json:"round_msgs_per_s,omitempty"`
	// Layers holds the per-layer metrics: all of them in a traced run,
	// the counters that need no tracing in a plain one.
	Layers metrics `json:"layers"`
	// Budget is the traced run's per-layer table of the measured
	// workload's ops.
	Budget []layerRow `json:"budget,omitempty"`
	Trace  string     `json:"trace_file,omitempty"`
	// Phases is where the run's own wall time went, in seconds.
	Phases map[string]float64 `json:"phases_s"`
}

// phase adds the time since t0 to the named phase of the report.
func (r *report) phase(name string, t0 time.Time) {
	r.Phases[name] += time.Since(t0).Seconds()
}

// measured is what the measured rounds of one instance add up to.
type measured struct {
	rates     []float64 // msgs/s, one per round
	lat       []float64 // ms, every op of every round
	tails     []float64 // ms, one per round that had samples enough
	tailPct   float64
	msgs      float64
	wall      time.Duration
	proc      procDelta
	perRoundN int
}

func (m *measured) round(inst instance) {
	before := readProc()
	msgs, wall, lat := inst.round(false)
	m.proc.add(before, readProc())
	if wall > 0 {
		m.rates = append(m.rates, float64(msgs)/wall.Seconds())
	}
	m.lat = append(m.lat, lat...)
	m.msgs += float64(msgs)
	m.wall += wall
	m.perRoundN = len(lat)
	// A round's own tail needs 100 samples; rounds of fewer ops pool
	// their samples over the run instead (see tail).
	if len(lat) >= 100 {
		pct, v, _ := tailPercentile(lat)
		m.tails, m.tailPct = append(m.tails, v), pct
	}
}

// tail reports bench.op_tail_ms: the median over rounds of each round's
// highest percentile with at least ten samples beyond it, or that
// percentile of the whole run's samples when rounds are too short.
func (m *measured) tail(out metrics) {
	pct, v, n := m.tailPct, median(m.tails), m.perRoundN
	if len(m.tails) == 0 {
		pct, v, _ = tailPercentile(m.lat)
		n = len(m.lat)
	}
	out["bench.op_tail_ms"], out["bench.op_tail_pct"], out["bench.op_tail_samples"] = v, pct, float64(n)
}

// runWorkload runs one workload in this process and returns its report.
func runWorkload(def *workloadDef, seed int64, seconds float64, traced bool) (rep report, err error) {
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return rep, err
	}
	root, err := os.MkdirTemp(dataRoot, def.name+"-")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(root)
	rep = report{Workload: def.name, Seed: seed, Traced: traced, Host: readHost(root), Layers: metrics{}, Phases: map[string]float64{}}
	t := &tally{}
	if traced {
		err = runTraced(&rep, t, root, def, seed, seconds)
	} else {
		err = runPlain(&rep, t, root, def, seed, seconds)
	}
	rep.Attempted, rep.Failed, rep.Failure = t.attempted, t.failed, t.first
	return rep, err
}

// prepare synthesizes the workload's source bag (follow_tail has none)
// and sets an instance up on it, returning how long the two took. The
// oracle is built beside the first bag synthesized and reused: the same
// seed gives the same bag. Building it is the benchmark's own work and
// is not part of the set-up time.
func prepare(def *workloadDef, sz size, dir string, seed int64, tr tracing, t *tally, orc **oracle) (instance, time.Duration, error) {
	var src string
	var took time.Duration
	if sz.data.seconds > 0 {
		t0 := time.Now()
		var err error
		if src, err = synth(dir, sz.data, seed); err != nil {
			return nil, 0, err
		}
		took = time.Since(t0)
		if *orc == nil {
			if *orc, err = newOracle(src, sz.data, seed); err != nil {
				return nil, 0, err
			}
		}
	}
	inst := def.newInstance(sz, dir, seed, tr, t)
	t0 := time.Now()
	if err := inst.setup(src, *orc); err != nil {
		inst.close()
		return nil, 0, fmt.Errorf("%s set-up: %w", def.name, err)
	}
	return inst, took + time.Since(t0), nil
}

func runPlain(rep *report, t *tally, root string, def *workloadDef, seed int64, seconds float64) error {
	// Set up several times and report the median: one set-up is a
	// second or two of file writes, and the page cache's writeback makes
	// a single reading jumpy. The last set-up is the one measured on.
	var inst instance
	var orc *oracle
	var setups []float64
	t0 := time.Now()
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return err
			}
		}
		dir := filepath.Join(root, fmt.Sprintf("setup-%d", i))
		if i > 0 {
			os.RemoveAll(filepath.Join(root, fmt.Sprintf("setup-%d", i-1)))
		}
		var took time.Duration
		var err error
		if inst, took, err = prepare(def, def.full, dir, seed, tracing{}, t, &orc); err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
	}
	defer inst.close()
	rep.phase("setup_and_oracle", t0)

	resetPeakRSS()
	t0 = time.Now()
	inst.round(true) // opening verification: full digests, every op kind
	rep.phase("verify", t0)
	runtime.GC()
	inst.mark()
	var m measured
	t0 = time.Now()
	for len(m.rates) < minRounds || time.Since(t0).Seconds() < seconds {
		m.round(inst)
		rep.Rounds++
	}
	rep.phase("measured", t0)
	inst.layers(rep.Layers)
	m.proc.layers(rep.Layers, m.msgs, m.wall)
	m.tail(rep.Layers)
	t0 = time.Now()
	inst.round(true) // closing verification
	rep.phase("verify", t0)

	disk, payload := inst.stored()
	rep.Samples, rep.RoundRates = len(m.lat), m.rates
	rep.EndToEnd = map[string]float64{
		"setup_s":                       median(setups),
		"msgs_per_s":                    median(m.rates),
		"op_p50_ms":                     median(m.lat),
		"stored_bytes_per_payload_byte": ratio(float64(disk), float64(payload)),
		"peak_rss_MB":                   peakRSSMB(),
	}
	return nil
}

func runTraced(rep *report, t *tally, root string, def *workloadDef, seed int64, seconds float64) error {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(traceRingSlots)
	tr := tracing{reg: reg, sp: newSpans(time.Now())}

	// The measured workload, twice: an untraced instance and a traced
	// twin, whose rounds alternate so both see the same machine.
	var orc *oracle
	t0 := time.Now()
	plain, _, err := prepare(def, def.full, filepath.Join(root, "plain"), seed, tracing{}, t, &orc)
	if err != nil {
		return err
	}
	defer plain.close()
	twin, _, err := prepare(def, def.full, filepath.Join(root, "traced"), seed, tr, t, &orc)
	if err != nil {
		return err
	}
	defer twin.close()
	rep.phase("setup_and_oracle", t0)
	t0 = time.Now()
	twin.round(true)
	rep.phase("verify", t0)
	tr.sp.reset()
	reg.AttachTracer(tracer) // from here on: the trace is of the measured ops, not of set-up
	runtime.GC()
	plain.mark()
	twin.mark()
	var mp, mt measured
	t0 = time.Now()
	for len(mt.rates) < minRounds || time.Since(t0).Seconds() < seconds {
		mp.round(plain)
		mt.round(twin)
		rep.Rounds++
	}
	rep.phase("measured", t0)
	twin.layers(rep.Layers)
	mp.proc.layers(rep.Layers, mp.msgs, mp.wall)
	mp.tail(rep.Layers)
	rep.Layers["obs.trace_overhead_ratio"] = ratio(median(mp.rates), median(mt.rates))
	rep.Budget = tr.sp.layerTable()
	rep.Layers["bench.harness_self_share"] = harnessShare(rep.Budget)
	t0 = time.Now()
	twin.round(true)
	rep.phase("verify", t0)
	rep.Samples, rep.RoundRates = len(mp.lat), mp.rates

	// The other workloads' layers, from small traced instances on D0,
	// and the single-layer probes on the same bag.
	miniRoot := filepath.Join(root, "mini")
	t0 = time.Now()
	src, err := synth(miniRoot, d0, seed)
	if err != nil {
		return err
	}
	rep.Layers["rosbag.write_s"] = time.Since(t0).Seconds()
	miniOrc, err := newOracle(src, d0, seed)
	if err != nil {
		return err
	}
	for i := range workloads {
		if other := &workloads[i]; other != def {
			if err := runMini(rep.Layers, t, other, miniRoot, src, miniOrc, seed); err != nil {
				return err
			}
		}
	}
	rep.phase("other_workloads", t0)
	t0 = time.Now()
	if err := probes(rep.Layers, src, filepath.Join(miniRoot, "probes")); err != nil {
		return err
	}
	rep.phase("probes", t0)

	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	rep.Trace = filepath.Join(traceDir, def.name+".trace.json")
	f, err := os.Create(rep.Trace)
	if err != nil {
		return err
	}
	tr.sp.export(tracer)
	if err := tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", rep.Trace, err)
	}
	return f.Close()
}

// runMini sets up a small traced instance of another workload, runs a
// verification round and minRounds measured ones, and collects the
// layer metrics that workload owns.
func runMini(out metrics, t *tally, def *workloadDef, root, src string, orc *oracle, seed int64) error {
	tr := tracing{reg: obs.NewRegistry(), sp: newSpans(time.Now())}
	inst := def.newInstance(def.mini, filepath.Join(root, def.name), seed, tr, t)
	defer inst.close()
	if err := inst.setup(src, orc); err != nil {
		return fmt.Errorf("%s mini set-up: %w", def.name, err)
	}
	inst.round(true)
	tr.sp.reset()
	inst.mark()
	for i := 0; i < minRounds; i++ {
		inst.round(false)
	}
	inst.layers(out)
	return nil
}
