package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// readReports reads a result file: one report per line, as a run of all
// workloads prints them. Runs may be appended to one file; the plain
// reports of a workload become that workload's samples.
func readReports(path string) (map[string][]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Workload != "" && !r.Traced {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// compareFiles prints, for every pairing of workload and end-to-end
// metric, both medians, how much worse the change is, the bound and the
// verdict. It returns an error — a non-zero exit — if any pair
// regressed, any run had failed ops, or a workload is missing.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	parent, err := readReports(parentPath)
	if err != nil {
		return err
	}
	change, err := readReports(changePath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent\tchange\tworse by\tbound\tspread\truns\tverdict")
	var regressed, unresolved int
	for _, wl := range workloads {
		a, b := parent[wl.name], change[wl.name]
		if len(a) == 0 || len(b) == 0 {
			return fmt.Errorf("%s: %d parent runs, %d change runs; need both", wl.name, len(a), len(b))
		}
		for _, r := range append(append([]report(nil), a...), b...) {
			if r.Failed > 0 {
				return fmt.Errorf("%s: a run has %d failed ops (%s); its numbers do not count", wl.name, r.Failed, r.Failure)
			}
		}
		for _, m := range endToEnd {
			as, bs := column(a, m.name), column(b, m.name)
			rel, sp, verdict := judge(as, bs, m.higher, m.bound)
			switch verdict {
			case verdictRegressed:
				regressed++
			case verdictUnresolved:
				unresolved++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%+.2f%%\t%.0f%%\t%.2f%%\t%d+%d\t%s\n",
				wl.name, m.name, median(as), m.unit, median(bs), m.unit, rel*100, m.bound*100, sp*100, len(as), len(bs), verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return fmt.Errorf("%d (workload, metric) pairs regressed", regressed)
	}
	return nil
}

func column(rs []report, metric string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		out = append(out, r.EndToEnd[metric])
	}
	return out
}
