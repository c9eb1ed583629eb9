// Command borabench regenerates the tables and figures of the BORA
// paper's evaluation. Each experiment prints the same rows/series the
// paper reports, produced by the access-path simulators over
// paper-scale synthetic bag layouts (see DESIGN.md §3 for the
// hardware-substitution argument).
//
// Usage:
//
//	borabench -list
//	borabench -exp fig10
//	borabench -all
//	borabench -metrics DIR -exp fig10
//	borabench -trace DIR -exp fig10
//
// With -metrics DIR, each experiment runs against a fresh obs registry
// and its snapshot is written to DIR/<id>.obs.json next to the printed
// table — per-op counts, bytes and log2 latency histograms for every
// instrumented layer the experiment exercised. Experiments that split
// their run into phases (e.g. dataset-build's cold, no-op and touch-one)
// additionally write one DIR/<id>.<phase>.obs.json delta per phase.
//
// With -trace DIR, each experiment's registry also carries a tracer and
// the recorded spans are written to DIR/<id>.trace.json as Chrome
// trace-event JSON, loadable in chrome://tracing or Perfetto. Simulated
// experiments emit sim-time spans (their virtual clocks are
// obs-attached), real-I/O experiments wall-time spans; both flags
// compose and may point at the same directory.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bench"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == errUsage {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "borabench:", err)
		os.Exit(1)
	}
}

var errUsage = fmt.Errorf("usage error")

// run executes the CLI against the given argument list and output.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("borabench", flag.ContinueOnError)
	list := fs.Bool("list", false, "list experiment ids and exit")
	exp := fs.String("exp", "", "run one experiment (e.g. fig10, table1)")
	all := fs.Bool("all", false, "run every experiment")
	metricsDir := fs.String("metrics", "", "write a <id>.obs.json observability sidecar per experiment to this directory")
	traceDir := fs.String("trace", "", "write a <id>.trace.json Chrome trace-event sidecar per experiment to this directory")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: borabench [-list] [-exp <id>] [-all] [-metrics DIR] [-trace DIR]\n\nexperiments:\n  %s\n",
			strings.Join(bench.IDs(), "\n  "))
	}
	if err := fs.Parse(args); err != nil {
		return errUsage
	}

	// runOne executes one experiment, with its own registry (and tracer)
	// when a sidecar directory was requested so the per-experiment files
	// do not bleed into each other.
	runOne := func(id string) (*bench.Table, error) {
		if *metricsDir == "" && *traceDir == "" {
			return bench.Run(id)
		}
		reg := obs.NewRegistry()
		var tr *obs.Tracer
		if *traceDir != "" {
			tr = obs.NewTracer(0)
			reg.AttachTracer(tr)
		}
		t, err := bench.RunObs(id, reg)
		if *metricsDir != "" {
			if werr := writeSidecar(*metricsDir, id, reg.Snapshot()); werr != nil && err == nil {
				err = werr
			}
			if t != nil {
				for _, ph := range t.Phases {
					if werr := writeSidecar(*metricsDir, id+"."+ph.Name, ph.Snap); werr != nil && err == nil {
						err = werr
					}
				}
			}
		}
		if tr != nil {
			if werr := writeTrace(*traceDir, id, tr); werr != nil && err == nil {
				err = werr
			}
		}
		return t, err
	}

	switch {
	case *list:
		for _, id := range bench.IDs() {
			fmt.Fprintln(out, id)
		}
		return nil
	case *exp != "":
		t, err := runOne(*exp)
		if err != nil {
			return err
		}
		t.Fprint(out)
		return nil
	case *all:
		for _, id := range bench.IDs() {
			t, err := runOne(id)
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			t.Fprint(out)
		}
		return nil
	default:
		fs.Usage()
		return errUsage
	}
}

// writeSidecar dumps one obs snapshot as JSON. An empty snapshot (e.g.
// the experiment id did not resolve, so nothing ran; or a phase with no
// activity) leaves no file behind.
func writeSidecar(dir, id string, snap obs.Snapshot) error {
	if len(snap.Counters) == 0 && len(snap.Ops) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := snap.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, id+".obs.json"), data, 0o644)
}

// writeTrace dumps one experiment's recorded spans as Chrome trace-event
// JSON. A tracer that saw no events leaves no file behind.
func writeTrace(dir, id string, tr *obs.Tracer) error {
	if len(tr.Events()) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+".trace.json"))
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
