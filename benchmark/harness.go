package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
)

// dataset is one synthetic Handheld SLAM recording (the paper's
// Table II topic mix) by duration and image scale-down.
type dataset struct{ seconds, scaleDown int }

var (
	d0 = dataset{10, 200}  // 12,720 msgs, ≈ 7 MB
	d1 = dataset{60, 200}  // 76,320 msgs, ≈ 40 MB: fits the pool's 64 MB block cache
	d2 = dataset{120, 100} // 152,640 msgs, ≈ 119 MB: does not fit
)

// baseNs is the first timestamp workload.generateHandheldSLAM emits.
const baseNs = int64(1_500_000_000) * 1e9

// smallTopics are the five structured topics of the mix: 1,212 of its
// 1,272 messages per second and about 2 % of its bytes.
var smallTopics = []string{
	workload.TopicIMU, workload.TopicTF, workload.TopicMarkerArray,
	workload.TopicRGBCameraInfo, workload.TopicDepthCameraInfo,
}

func synthOptions(d dataset, seed int64) workload.SyntheticOptions {
	return workload.SyntheticOptions{Seconds: d.seconds, ScaleDown: d.scaleDown, Seed: seed}
}

// synth writes the dataset's source bag under dir and returns its path.
func synth(dir string, d dataset, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	src := filepath.Join(dir, "src.bag")
	if _, err := workload.WriteHandheldSLAMBag(src, synthOptions(d, seed)); err != nil {
		return "", fmt.Errorf("synthesize %s: %w", src, err)
	}
	return src, nil
}

// size is how much work one instance of a workload does: the dataset it
// runs on and the number of ops in a round.
type size struct {
	data dataset
	ops  int
}

// tracing is what a traced instance carries: a registry (with a tracer
// attached) handed to the program through its Options.Obs fields, and
// the benchmark's own span recorder. The zero value is tracing off.
type tracing struct {
	reg *obs.Registry
	sp  *spans
}

// tally counts ops across every instance of a run. An op fails on an
// error, a refused request or a result that differs from the oracle's.
type tally struct {
	attempted, failed int
	first             string // first failure, for the report
}

// op records one op's outcome and reports whether it succeeded.
func (t *tally) op(what string, err error, mismatch string) bool {
	t.attempted++
	if err == nil && mismatch == "" {
		return true
	}
	t.failed++
	if t.first == "" {
		if err != nil {
			mismatch = err.Error()
		}
		t.first = what + ": " + mismatch
	}
	return false
}

// metrics maps a per-layer metric name to its value; units live in the
// perLayer table.
type metrics map[string]float64

// instance is one set-up copy of a workload: its data, its serving
// stack and its op loop. A run uses one instance (plus a traced twin in
// a traced run); the other workloads' layer metrics come from small
// traced instances of their own.
type instance interface {
	// setup builds the serving stack on the source bag (none for
	// follow_tail) and runs the warm-up ops. It is what setup_s times,
	// together with synthesizing the bag.
	setup(src string, orc *oracle) error
	// round runs one round of fixed work and returns the messages it
	// moved, the wall time the rate divides them by, and one latency
	// in ms per op. With verify it checks full digests and order
	// instead of counts and bytes.
	round(verify bool) (msgs int64, wall time.Duration, lat []float64)
	// mark snapshots the cumulative counters layers later diffs; it is
	// called once, before the first measured round.
	mark()
	// layers adds the per-layer metrics this workload owns.
	layers(out metrics)
	// stored reports the bytes on disk of the container the workload
	// built and the payload bytes that went into it.
	stored() (disk, payload int64)
	close() error
}

// common is the state every workload shares.
type common struct {
	sz    size
	dir   string
	seed  int64
	tr    tracing
	tally *tally
	orc   *oracle
}

// newInstance makes an instance of the workload at the given size,
// keeping its data under dir.
func (d *workloadDef) newInstance(sz size, dir string, seed int64, tr tracing, t *tally) instance {
	return d.new(common{sz: sz, dir: dir, seed: seed, tr: tr, tally: t})
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) (int64, error) {
	var n int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when the base is 0 (an idle layer).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanMs puts the median of the named span under metric name, when the
// instance is traced and the span occurred.
func (c *common) spanMs(out metrics, name, spanName string, scale float64) {
	if v, n := c.tr.sp.medianMs(spanName); n > 0 {
		out[name] = v * scale
	}
}
