// Package timeindex implements BORA's coarse-grain time indexing (Fig 8
// of the paper). Messages of a topic are grouped into fixed time windows;
// for each window the index stores the list of message positions (index
// entry ordinals) whose timestamps fall inside the window. The windows
// are kept in a priority queue (binary min-heap keyed by window start),
// matching the paper's internal structure, with a hash map beside it for
// O(1) window lookup.
//
// A query for [start, end] computes floor(start/W) and ceil(end/W) and
// touches only the windows in between — reducing both the number of index
// entries scanned and the byte range read, which is where the up-to-11×
// time-query speedups of Figs 13/14/16/18 come from.
package timeindex

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"repro/internal/bagio"
)

// DefaultWindow is the default time-window width. The paper's experiments
// use 5-second stair-step intervals; 1s windows keep per-window lists
// small for high-rate topics while still bounding scans tightly.
const DefaultWindow = time.Second

// Index is a coarse-grain time index over one topic's messages.
type Index struct {
	window  int64 // window width in nanoseconds
	heap    []int64
	byStart map[int64]*windowList
	lastLen int // positions in the window Add appended to most recently
}

type windowList struct {
	start     int64 // window start in ns
	positions []uint32
}

// New creates an index with the given window width. Width must be
// positive; zero selects DefaultWindow.
func New(window time.Duration) *Index {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Index{window: int64(window), byStart: map[int64]*windowList{}}
}

// Window returns the configured window width.
func (ix *Index) Window() time.Duration { return time.Duration(ix.window) }

// WindowCount returns the number of populated windows.
func (ix *Index) WindowCount() int { return len(ix.byStart) }

// windowStart maps a timestamp to its window's start (ns).
func (ix *Index) windowStart(t bagio.Time) int64 {
	return (t.Nanos() / ix.window) * ix.window
}

// Add records that the message at ordinal position pos has timestamp t.
func (ix *Index) Add(t bagio.Time, pos uint32) {
	ws := ix.windowStart(t)
	wl, ok := ix.byStart[ws]
	if !ok {
		// Sized like the last window: one allocation at a steady rate.
		wl = &windowList{start: ws, positions: make([]uint32, 0, ix.lastLen)}
		ix.byStart[ws] = wl
		ix.heapPush(ws)
	}
	wl.positions = append(wl.positions, pos)
	ix.lastLen = len(wl.positions)
}

// heapPush inserts a window start into the min-heap.
func (ix *Index) heapPush(v int64) {
	ix.heap = append(ix.heap, v)
	i := len(ix.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if ix.heap[parent] <= ix.heap[i] {
			break
		}
		ix.heap[parent], ix.heap[i] = ix.heap[i], ix.heap[parent]
		i = parent
	}
}

// Min returns the earliest populated window start, in nanoseconds, or
// false when the index is empty.
func (ix *Index) Min() (int64, bool) {
	if len(ix.heap) == 0 {
		return 0, false
	}
	return ix.heap[0], true
}

// Query returns the ordinal positions of messages in windows overlapping
// [start, end]. Positions within each window are in insertion order;
// windows are visited in ascending start order. The result may include
// messages slightly outside [start, end] (up to one window on each side);
// the caller performs the fine-grain timestamp filter, exactly as the
// paper describes ("a reduced number of messages for later fine-grain
// looking up").
func (ix *Index) Query(start, end bagio.Time) []uint32 {
	if end.Before(start) {
		return nil
	}
	first := (start.Nanos() / ix.window) * ix.window
	// The paper computes ceil(end/W) as the (exclusive) upper window
	// index; equivalently the last window to touch is the one containing
	// end.
	last := (end.Nanos() / ix.window) * ix.window
	if sparse, ok := ix.sparseRange(first, last); ok {
		var out []uint32
		for _, ws := range sparse {
			out = append(out, ix.byStart[ws].positions...)
		}
		return out
	}
	var out []uint32
	for ws := first; ws <= last; ws += ix.window {
		if wl, ok := ix.byStart[ws]; ok {
			out = append(out, wl.positions...)
		}
	}
	return out
}

// sparseRange returns the populated window starts within [first, last]
// in ascending order when that is cheaper than arithmetic stepping —
// the half-open-query guard: a bounded start with an unbounded end
// spans ~2^32 one-second windows, and stepping a map probe through
// each of them turns a cheap pruned scan into minutes of spinning.
// ok=false means the dense walk is at least as cheap.
func (ix *Index) sparseRange(first, last int64) ([]int64, bool) {
	span := (last-first)/ix.window + 1
	if span <= int64(len(ix.byStart)) {
		return nil, false
	}
	var starts []int64
	for ws := range ix.byStart {
		if ws >= first && ws <= last {
			starts = append(starts, ws)
		}
	}
	sort.Slice(starts, func(a, b int) bool { return starts[a] < starts[b] })
	return starts, true
}

// QuerySorted is Query with the positions returned in ascending
// ordinal order, which is what scan planners want (a monotone file
// walk). Containers built from time-ordered topic streams — the normal
// duplicate output — already yield ascending positions, so the sort is
// skipped unless a single verification pass finds an inversion.
func (ix *Index) QuerySorted(start, end bagio.Time) []uint32 {
	out := ix.Query(start, end)
	for i := 1; i < len(out); i++ {
		if out[i-1] > out[i] {
			sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
			break
		}
	}
	return out
}

// WindowsScanned reports how many populated windows a [start, end] query
// touches; the cost-model validation uses it.
func (ix *Index) WindowsScanned(start, end bagio.Time) int {
	if end.Before(start) {
		return 0
	}
	first := (start.Nanos() / ix.window) * ix.window
	last := (end.Nanos() / ix.window) * ix.window
	if sparse, ok := ix.sparseRange(first, last); ok {
		return len(sparse)
	}
	n := 0
	for ws := first; ws <= last; ws += ix.window {
		if _, ok := ix.byStart[ws]; ok {
			n++
		}
	}
	return n
}

// MaxPosition returns the largest message ordinal referenced by any
// window, and false when the index references no messages. Fsck uses it
// to detect windows orphaned by a truncated message index.
func (ix *Index) MaxPosition() (uint32, bool) {
	var max uint32
	found := false
	for _, wl := range ix.byStart {
		for _, p := range wl.positions {
			if !found || p > max {
				max = p
			}
			found = true
		}
	}
	return max, found
}

// Build constructs an index over a topic's message timestamps, where
// times[i] is the timestamp of the message at ordinal i.
func Build(window time.Duration, times []bagio.Time) *Index {
	ix := New(window)
	for i, t := range times {
		ix.Add(t, uint32(i))
	}
	return ix
}

// Marshal serializes the index:
//
//	window:u64 count:u32 (start:i64 n:u32 pos*n)*count
//
// Windows are emitted in ascending start order.
func (ix *Index) Marshal() []byte {
	starts := make([]int64, 0, len(ix.byStart))
	for ws := range ix.byStart {
		starts = append(starts, ws)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	size := 8 + 4
	for _, ws := range starts {
		size += 8 + 4 + 4*len(ix.byStart[ws].positions)
	}
	buf := make([]byte, 0, size)
	var b8 [8]byte
	var b4 [4]byte
	binary.LittleEndian.PutUint64(b8[:], uint64(ix.window))
	buf = append(buf, b8[:]...)
	binary.LittleEndian.PutUint32(b4[:], uint32(len(starts)))
	buf = append(buf, b4[:]...)
	for _, ws := range starts {
		wl := ix.byStart[ws]
		binary.LittleEndian.PutUint64(b8[:], uint64(ws))
		buf = append(buf, b8[:]...)
		binary.LittleEndian.PutUint32(b4[:], uint32(len(wl.positions)))
		buf = append(buf, b4[:]...)
		for _, p := range wl.positions {
			binary.LittleEndian.PutUint32(b4[:], p)
			buf = append(buf, b4[:]...)
		}
	}
	return buf
}

// Unmarshal parses a serialized index.
func Unmarshal(buf []byte) (*Index, error) {
	if len(buf) < 12 {
		return nil, fmt.Errorf("timeindex: truncated header (%d bytes)", len(buf))
	}
	window := int64(binary.LittleEndian.Uint64(buf[0:8]))
	if window <= 0 {
		return nil, fmt.Errorf("timeindex: invalid window %d", window)
	}
	count := binary.LittleEndian.Uint32(buf[8:12])
	ix := New(time.Duration(window))
	off := 12
	for i := uint32(0); i < count; i++ {
		if off+12 > len(buf) {
			return nil, fmt.Errorf("timeindex: truncated window header at %d", off)
		}
		ws := int64(binary.LittleEndian.Uint64(buf[off : off+8]))
		n := binary.LittleEndian.Uint32(buf[off+8 : off+12])
		off += 12
		if off+4*int(n) > len(buf) {
			return nil, fmt.Errorf("timeindex: truncated position list at %d", off)
		}
		wl := &windowList{start: ws, positions: make([]uint32, n)}
		for j := range wl.positions {
			wl.positions[j] = binary.LittleEndian.Uint32(buf[off : off+4])
			off += 4
		}
		if _, dup := ix.byStart[ws]; dup {
			return nil, fmt.Errorf("timeindex: duplicate window %d", ws)
		}
		ix.byStart[ws] = wl
		ix.heapPush(ws)
	}
	if off != len(buf) {
		return nil, fmt.Errorf("timeindex: %d trailing bytes", len(buf)-off)
	}
	return ix, nil
}
