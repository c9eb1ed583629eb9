// Command benchmark is the repository's performance benchmark: five
// fixed-work workloads over the real BORA stack, five end-to-end
// metrics per workload and a traced per-layer budget. BENCHMARK.json at
// the repository root names it; README.md beside this file defines
// every workload and metric.
//
//	go run ./benchmark --workload scan_small --seed 1 --seconds 12 --trace 0
//	go run ./benchmark --trace 1 > run.jsonl           # all five, plain then traced
//	go run ./benchmark --compare a.jsonl b.jsonl
//
// Every layer is measured from outside: by timing calls into its public
// functions and reading counters the program already exports.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this workload in this process; empty runs all five, one child process each")
		seed     = flag.Int64("seed", 1, "seed of the synthetic recording and of the window schedule")
		seconds  = flag.Float64("seconds", 12, "how long the measured rounds of a run last")
		trace    = flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics; 0 reports the end-to-end metrics")
		compare  = flag.Bool("compare", false, "compare two result files: --compare parent.jsonl change.jsonl")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced, compare bool, args []string) error {
	switch {
	case compare:
		if len(args) != 2 {
			return fmt.Errorf("--compare takes two result files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	case len(args) > 0:
		return fmt.Errorf("unexpected argument %q", args[0])
	case workload == "":
		return runAll(seed, seconds, traced)
	}
	def := workloadByName(workload)
	if def == nil {
		return fmt.Errorf("unknown workload %q", workload)
	}
	// The shared runner has two cores; more would only let the Go
	// runtime's own background work wander.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	rep, err := runWorkload(def, seed, seconds, traced)
	if err != nil {
		return err
	}
	result, err := contractResult(rep)
	if err != nil {
		return err
	}
	// Two lines: the full report, then the result in the form
	// BENCHMARK.json's contract fixes, which must come last.
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if err := enc.Encode(result); err != nil {
		return err
	}
	if rep.Failed > 0 {
		return fmt.Errorf("%s: %d of %d ops failed, first: %s", workload, rep.Failed, rep.Attempted, rep.Failure)
	}
	return nil
}

// value is one metric in the contract's result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// contractResult builds the result line: every end-to-end metric of a
// plain run, every per-layer metric of a traced one. A metric the run
// did not measure is an error, not a zero.
func contractResult(rep report) (result, error) {
	res := result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]value{}}
	if rep.Traced {
		for _, m := range perLayer {
			v, ok := rep.Layers[m.name]
			if !ok {
				return res, fmt.Errorf("%s: per-layer metric %s was not measured", rep.Workload, m.name)
			}
			res.Metrics[m.name] = value{v, m.unit}
		}
		return res, nil
	}
	for _, m := range endToEnd {
		v, ok := rep.EndToEnd[m.name]
		if !ok || v == 0 {
			return res, fmt.Errorf("%s: end-to-end metric %s was not measured", rep.Workload, m.name)
		}
		res.Metrics[m.name] = value{v, m.unit}
	}
	return res, nil
}

// runAll runs every workload in a child process of its own — so peak
// RSS, /proc/self/io and MemStats belong to one workload — plain, and
// traced as well when asked, and prints each child's report line.
func runAll(seed int64, seconds float64, traced bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	modes := []string{"0"}
	if traced {
		modes = append(modes, "1")
	}
	failed := false
	for _, w := range workloads {
		for _, mode := range modes {
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", mode)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s --trace %s: %w", w.name, mode, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			if len(lines) != 2 {
				return fmt.Errorf("%s --trace %s printed %d lines, want 2", w.name, mode, len(lines))
			}
			var rep report
			if err := json.Unmarshal(lines[0], &rep); err != nil {
				return fmt.Errorf("%s --trace %s: %w", w.name, mode, err)
			}
			failed = failed || rep.Failed > 0
			os.Stdout.Write(append(lines[0], '\n'))
		}
	}
	if failed {
		return fmt.Errorf("some ops failed; see ops_failed and first_failure above")
	}
	return nil
}
