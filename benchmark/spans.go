package main

import (
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// span is one timed call made by the benchmark: the op itself
// ("bench.op") or a call into a layer's public function inside it
// ("core.Open", "client.Query", ...). The layer is the name's prefix.
type span struct {
	name       string
	parent     int32 // index into spans.all; -1 for an op root
	op         int32 // one id per op, shared by the op's spans
	start, end int64 // ns since spans.epoch
	failed     bool
}

// spans records the benchmark's own spans in memory. It is used from
// the load-generating goroutine only, so parent links are simply the
// stack of open spans. A nil *spans records nothing, which is how the
// untraced rounds run the very same op code.
type spans struct {
	epoch time.Time
	all   []span
	open  []int32
	ops   int32
}

func newSpans(epoch time.Time) *spans { return &spans{epoch: epoch} }

// reset forgets the spans recorded so far, so that what follows — the
// measured rounds — is all the budget covers.
func (s *spans) reset() {
	if s != nil {
		s.all, s.ops = s.all[:0], 0
	}
}

// begin opens a span under the innermost open one and returns its
// handle for end.
func (s *spans) begin(name string) int32 {
	if s == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(s.open); n > 0 {
		parent = s.open[n-1]
	} else {
		s.ops++
	}
	id := int32(len(s.all))
	s.all = append(s.all, span{name: name, parent: parent, op: s.ops, start: int64(time.Since(s.epoch))})
	s.open = append(s.open, id)
	return id
}

// end closes the span begin returned; err marks it failed.
func (s *spans) end(id int32, err error) {
	if s == nil {
		return
	}
	sp := &s.all[id]
	sp.end = int64(time.Since(s.epoch))
	sp.failed = err != nil
	s.open = s.open[:len(s.open)-1]
}

// medianMs returns the median duration in milliseconds of the spans
// with the given name, and how many there were.
func (s *spans) medianMs(name string) (float64, int) {
	if s == nil {
		return 0, 0
	}
	var ds []float64
	for i := range s.all {
		if s.all[i].name == name {
			ds = append(ds, float64(s.all[i].end-s.all[i].start)/1e6)
		}
	}
	return median(ds), len(ds)
}

// layerRow is one line of the per-layer budget: how often the layer was
// called, how long it was busy (sum of its spans), how much of that was
// its own (busy minus the part its child spans cover) and how many of
// its calls failed.
type layerRow struct {
	Layer    string  `json:"layer"`
	Count    int     `json:"count"`
	BusyMs   float64 `json:"busy_ms"`
	SelfMs   float64 `json:"self_ms"`
	Failures int     `json:"failures"`
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// layerTable folds the spans into one row per layer, sorted by self
// time. Because every span nests under an op root, the self times add
// up to the total op time exactly; the "bench" row is what the harness
// itself (callbacks, oracle checks) costs inside the ops.
func (s *spans) layerTable() []layerRow {
	if s == nil {
		return nil
	}
	child := make([]int64, len(s.all))
	for i := range s.all {
		if p := s.all[i].parent; p >= 0 {
			child[p] += s.all[i].end - s.all[i].start
		}
	}
	rows := map[string]*layerRow{}
	for i := range s.all {
		sp := &s.all[i]
		l := layerOf(sp.name)
		r := rows[l]
		if r == nil {
			r = &layerRow{Layer: l}
			rows[l] = r
		}
		d := sp.end - sp.start
		r.Count++
		r.BusyMs += float64(d) / 1e6
		r.SelfMs += float64(d-child[i]) / 1e6
		if sp.failed {
			r.Failures++
		}
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// harnessShare is the share of total op time that is the benchmark's
// own self time — the part of an op no layer accounts for.
func harnessShare(rows []layerRow) float64 {
	var total, bench float64
	for _, r := range rows {
		total += r.SelfMs
		if r.Layer == "bench" {
			bench = r.SelfMs
		}
	}
	if total == 0 {
		return 0
	}
	return bench / total
}

// maxExportedSpans bounds what export hands the tracer, so the
// benchmark's spans cannot push all of the program's own out of the
// tracer's ring.
const maxExportedSpans = 1 << 14

// export replays the first maxExportedSpans recorded spans into tr on a
// lane of their own, so that Tracer.WriteChromeTrace renders the
// benchmark's view of each op beside the spans the program emitted
// itself. The two share a timeline: epoch is taken when the registry is
// created.
func (s *spans) export(tr *obs.Tracer) {
	if s == nil || tr == nil {
		return
	}
	n := len(s.all)
	if n > maxExportedSpans {
		n = maxExportedSpans
	}
	track := tr.NewTrack()
	ids := make([]uint64, n)
	for i := 0; i < n; i++ {
		sp := &s.all[i]
		var parent uint64
		if sp.parent >= 0 {
			parent = ids[sp.parent]
		}
		ids[i] = tr.BeginQuery(sp.name, sp.start, parent, track, uint64(sp.op))
		tr.End(sp.name, sp.end, ids[i], track)
	}
}
