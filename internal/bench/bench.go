// Package bench contains one runner per table and figure of the paper's
// evaluation, each producing a printable Table with the same rows/series
// the paper reports. cmd/borabench and the root testing.B benchmarks are
// thin wrappers over Run.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// Table is one regenerated experiment artifact.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string // expected paper shape, substitutions, caveats
	// Phases carries per-phase metric deltas (obs.Snapshot.Delta) for
	// experiments that split their run into named phases — e.g.
	// dataset-build's cold, no-op and touch-one builds. cmd/borabench writes each as a
	// <id>.<phase>.obs.json sidecar; Fprint ignores them.
	Phases []Phase
}

// Phase is one named slice of an experiment's metrics: the registry
// activity between two points of the run.
type Phase struct {
	Name string
	Snap obs.Snapshot
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
			} else {
				parts[i] = cell
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Header)
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	printRow(seps)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Runner produces one experiment's table. The registry receives the
// run's metrics — real-I/O experiments thread it into the core stack,
// simulator experiments record their simulated path durations under
// pathsim.* — and may be nil to disable recording.
type Runner func(reg *obs.Registry) (*Table, error)

var registry = map[string]Runner{}

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("bench: duplicate experiment id " + id)
	}
	registry[id] = r
}

// IDs returns the sorted experiment identifiers.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id without metrics collection.
func Run(id string) (*Table, error) {
	return RunObs(id, nil)
}

// RunObs executes one experiment by id, recording its metrics to reg
// (nil disables recording). The whole run is wrapped in a bench.<id>
// span so the sidecar shows wall time and failure next to the per-layer
// ops.
func RunObs(id string, reg *obs.Registry) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	sp := reg.Op("bench." + id).Start()
	t, err := r(reg)
	sp.EndErr(err)
	return t, err
}

// fmtDur renders a duration with experiment-friendly precision.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/1e6)
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/1e3)
	default:
		return d.String()
	}
}

// fmtRatio renders a speedup.
func fmtRatio(base, opt time.Duration) string {
	if opt <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", float64(base)/float64(opt))
}

// fmtGB renders a byte count in decimal GB, matching the paper's labels.
func fmtGB(b int64) string { return fmt.Sprintf("%.1fGB", float64(b)/1e9) }
