package repro

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// benchWorkloads are the five workloads of BENCHMARK.json.
var benchWorkloads = []string{"scan_small", "window_stride", "remote_stream", "duplicate", "follow_tail"}

// exactCounters are the benchmark's counters that repeat exactly on
// fixed work (benchmark/README.md marks them *c*): a change in one
// across the trajectory is the code's doing, not the host's.
var exactCounters = []string{
	"core.scan_entries_per_msg", "core.scan_read_bytes_per_byte",
	"core.win_entries_per_msg", "core.windows_per_query",
	"core.stride_entries_per_msg", "core.stride_read_bytes_per_byte",
	"pool.handle_hit_ratio", "pool.block_hit_ratio", "pool.block_evictions_per_op", "pool.fill_bytes_per_byte",
	"pool.remote_handle_hit_ratio", "pool.remote_block_hit_ratio", "pool.remote_block_evictions_per_op", "pool.remote_fill_bytes_per_byte",
	"server.queries_busy", "wire.writes_per_msg", "wire.bytes_per_payload_byte", "core.follow_segments",
	"os.read_syscalls_per_msg", "os.write_syscalls_per_msg", "os.allocs_per_msg", "os.alloc_bytes_per_msg",
}

// benchLine is one line of benchmark/run.sh's output: a workload's
// plain run (end-to-end metrics) or traced run (per-layer metrics).
type benchLine struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Attempted int64              `json:"ops_attempted"`
	Failed    *int64             `json:"ops_failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Layers    map[string]float64 `json:"layers"`
}

// readBenchLines parses a file of benchmark/run.sh output lines.
func readBenchLines(path string) ([]benchLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []benchLine
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for n := 1; sc.Scan(); n++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var l benchLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if l.Failed == nil || l.Attempted == 0 {
			return nil, fmt.Errorf("%s:%d: not a workload result (no ops attempted or failed)", path, n)
		}
		out = append(out, l)
	}
	return out, sc.Err()
}

// TestBenchTrajectory reads the committed trajectory: BENCH_<pr>.json is
// the verbatim output of `bash benchmark/run.sh --seed 1 --seconds 15
// --trace 1` on that PR's final commit, and BENCH_<pr>_pairs.*.jsonl
// the alternating plain runs behind a claimed gain. Every file parses,
// every BENCH_<pr>.json holds all five workloads plain and traced, and
// no run failed an op. With -v it prints each exact-repeat counter
// across the files, in PR order.
func TestBenchTrajectory(t *testing.T) {
	paths, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	type point struct {
		pr    int
		lines []benchLine
	}
	var traj []point
	for _, p := range paths {
		pr, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(p, "BENCH_"), ".json"))
		if err != nil {
			t.Errorf("%s is not named BENCH_<pr>.json", p)
			continue
		}
		lines, err := readBenchLines(p)
		if err != nil {
			t.Error(err)
			continue
		}
		seen := map[string]bool{}
		for _, l := range lines {
			kind := "plain"
			if l.Traced {
				kind = "traced"
			}
			seen[l.Workload+" "+kind] = true
			if *l.Failed != 0 {
				t.Errorf("%s: %s (%s) failed %d of %d ops", p, l.Workload, kind, *l.Failed, l.Attempted)
			}
			if !l.Traced && len(l.EndToEnd) == 0 || l.Traced && len(l.Layers) == 0 {
				t.Errorf("%s: %s (%s) carries no metrics", p, l.Workload, kind)
			}
		}
		for _, w := range benchWorkloads {
			for _, kind := range []string{"plain", "traced"} {
				if !seen[w+" "+kind] {
					t.Errorf("%s: no %s run of %s", p, kind, w)
				}
			}
		}
		traj = append(traj, point{pr, lines})
	}
	if len(traj) == 0 {
		t.Fatal("no BENCH_<pr>.json in the repository root")
	}
	sort.Slice(traj, func(i, j int) bool { return traj[i].pr < traj[j].pr })

	pairs, err := filepath.Glob("BENCH_*_pairs.*.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		lines, err := readBenchLines(p)
		if err != nil {
			t.Error(err)
			continue
		}
		for _, l := range lines {
			if *l.Failed != 0 {
				t.Errorf("%s: %s failed %d of %d ops", p, l.Workload, *l.Failed, l.Attempted)
			}
		}
	}

	if !testing.Verbose() {
		return
	}
	for _, w := range benchWorkloads {
		for _, name := range append([]string{"stored_bytes_per_payload_byte"}, exactCounters...) {
			var row []string
			for _, pt := range traj {
				for _, l := range pt.lines {
					if l.Workload != w {
						continue
					}
					if v, ok := l.Layers[name]; ok && l.Traced {
						row = append(row, fmt.Sprintf("%d: %.4g", pt.pr, v))
					} else if v, ok := l.EndToEnd[name]; ok && !l.Traced {
						row = append(row, fmt.Sprintf("%d: %.10g", pt.pr, v))
					}
				}
			}
			if len(row) > 0 {
				t.Logf("%s %s — %s", w, name, strings.Join(row, ", "))
			}
		}
	}
}
