// Package timeindex implements BORA's coarse-grain time indexing (Fig 8
// of the paper). Messages of a topic are grouped into fixed time windows;
// for each window the index stores the list of message positions (index
// entry ordinals) whose timestamps fall inside the window. The windows
// are kept in one table sorted by window start — the order the paper's
// min-heap yields — so a query finds its windows by binary search.
//
// A query for [start, end] computes floor(start/W) and ceil(end/W) and
// touches only the windows in between — reducing both the number of index
// entries scanned and the byte range read, which is where the up-to-11×
// time-query speedups of Figs 13/14/16/18 come from.
//
// Unlike the paper's, the index is not stored: a container builds it in
// memory from the topic's message index, which every query loads whole
// anyway (container.Topic.TimeIndex).
package timeindex

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/bagio"
)

// DefaultWindow is the default time-window width. The paper's experiments
// use 5-second stair-step intervals; 1s windows keep per-window lists
// small for high-rate topics while still bounding scans tightly.
const DefaultWindow = time.Second

// Index is a coarse-grain time index over one topic's messages. Only Add
// writes it: concurrent queries share a built index read-only.
type Index struct {
	window  int64    // window width in nanoseconds
	windows []window // populated windows, strictly ascending by start
}

type window struct {
	start     int64 // window start in ns
	positions []uint32
}

// New creates an index with the given window width. Width must be
// positive; zero selects DefaultWindow.
func New(width time.Duration) *Index {
	if width <= 0 {
		width = DefaultWindow
	}
	return &Index{window: int64(width)}
}

// Window returns the configured window width.
func (ix *Index) Window() time.Duration { return time.Duration(ix.window) }

// WindowCount returns the number of populated windows.
func (ix *Index) WindowCount() int { return len(ix.windows) }

// windowStart maps a timestamp to its window's start (ns).
func (ix *Index) windowStart(t bagio.Time) int64 {
	return (t.Nanos() / ix.window) * ix.window
}

// Add records that the message at ordinal position pos has timestamp t.
// A chronological stream appends to the last window or opens the next;
// a step back in time finds its window, or inserts it, in order.
func (ix *Index) Add(t bagio.Time, pos uint32) {
	ws := ix.windowStart(t)
	n := len(ix.windows)
	if n > 0 && ix.windows[n-1].start == ws {
		ix.windows[n-1].positions = append(ix.windows[n-1].positions, pos)
		return
	}
	i, found := ix.search(ws)
	if !found {
		// Sized like the latest window: one allocation at a steady rate.
		w := window{start: ws}
		if n > 0 {
			w.positions = make([]uint32, 0, len(ix.windows[n-1].positions))
		}
		ix.windows = slices.Insert(ix.windows, i, w)
	}
	ix.windows[i].positions = append(ix.windows[i].positions, pos)
}

// search returns the index of the first window starting at or after
// ws, and whether that window starts at ws.
func (ix *Index) search(ws int64) (int, bool) {
	return slices.BinarySearchFunc(ix.windows, ws, func(w window, ws int64) int { return cmp.Compare(w.start, ws) })
}

// Min returns the earliest populated window start, in nanoseconds, or
// false when the index is empty.
func (ix *Index) Min() (int64, bool) {
	if len(ix.windows) == 0 {
		return 0, false
	}
	return ix.windows[0].start, true
}

// span returns the populated windows overlapping [start, end], in
// ascending start order. The paper computes ceil(end/W) as the
// (exclusive) upper window index; equivalently the last window to touch
// is the one containing end.
func (ix *Index) span(start, end bagio.Time) []window {
	if end.Before(start) {
		return nil
	}
	lo, _ := ix.search(ix.windowStart(start))
	hi, _ := ix.search(ix.windowStart(end) + 1)
	return ix.windows[lo:hi]
}

// QuerySorted returns the ordinal positions of messages in windows
// overlapping [start, end], in ascending order, which is what scan
// planners want (a monotone file walk). The result may include messages
// slightly outside [start, end] (up to one window on each side); the
// caller performs the fine-grain timestamp filter, exactly as the paper
// describes ("a reduced number of messages for later fine-grain looking
// up"). The list is sized once from the windows' lengths. Containers
// built from time-ordered topic streams — the normal duplicate output —
// already yield ascending positions, so the sort is skipped unless a
// single verification pass finds an inversion.
func (ix *Index) QuerySorted(start, end bagio.Time) []uint32 {
	ws, n := ix.span(start, end), 0
	for _, w := range ws {
		n += len(w.positions)
	}
	if n == 0 {
		return nil
	}
	out := make([]uint32, 0, n)
	for _, w := range ws {
		out = append(out, w.positions...)
	}
	if !slices.IsSorted(out) {
		slices.Sort(out)
	}
	return out
}

// WindowsScanned reports how many populated windows a [start, end] query
// touches; the cost-model validation uses it.
func (ix *Index) WindowsScanned(start, end bagio.Time) int {
	return len(ix.span(start, end))
}

// Build constructs an index over a topic's message timestamps, where
// times[i] is the timestamp of the message at ordinal i.
func Build(width time.Duration, times []bagio.Time) *Index {
	ix := New(width)
	for i, t := range times {
		ix.Add(t, uint32(i))
	}
	return ix
}
