package timeindex

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bagio"
)

func ts(sec uint32, nsec uint32) bagio.Time { return bagio.Time{Sec: sec, NSec: nsec} }

func TestPaperExample(t *testing.T) {
	// Fig 8: window = 5 time units; the pair (31, [...]) covers messages
	// with timestamps in [31, 36). We use 5-second windows.
	ix := New(5 * time.Second)
	// Window [30,35): messages at 31, 33, 34.
	ix.Add(ts(31, 0), 0)
	ix.Add(ts(33, 0), 1)
	ix.Add(ts(34, 0), 2)
	// Window [35,40): message at 36.
	ix.Add(ts(36, 0), 3)
	if ix.WindowCount() != 2 {
		t.Fatalf("WindowCount = %d", ix.WindowCount())
	}
	got := ix.QuerySorted(ts(31, 0), ts(34, 0))
	if !reflect.DeepEqual(got, []uint32{0, 1, 2}) {
		t.Errorf("Query[31,34] = %v", got)
	}
	got = ix.QuerySorted(ts(31, 0), ts(36, 0))
	if !reflect.DeepEqual(got, []uint32{0, 1, 2, 3}) {
		t.Errorf("Query[31,36] = %v", got)
	}
	if min, ok := ix.Min(); !ok || min != 30*1e9 {
		t.Errorf("Min = %d, %v", min, ok)
	}
}

func TestQueryIsSuperset(t *testing.T) {
	// The coarse index may over-return within the boundary windows but
	// must never miss an in-range message.
	rng := rand.New(rand.NewSource(3))
	var times []bagio.Time
	for i := 0; i < 500; i++ {
		times = append(times, ts(uint32(100+rng.Intn(60)), uint32(rng.Intn(1e9))))
	}
	ix := Build(2*time.Second, times)
	for trial := 0; trial < 50; trial++ {
		start := ts(uint32(100+rng.Intn(60)), 0)
		end := start.Add(time.Duration(rng.Intn(20)) * time.Second)
		got := map[uint32]bool{}
		for _, p := range ix.QuerySorted(start, end) {
			got[p] = true
		}
		for i, tm := range times {
			inRange := !tm.Before(start) && !end.Before(tm)
			if inRange && !got[uint32(i)] {
				t.Fatalf("trial %d: message %d at %v missing from window query [%v,%v]", trial, i, tm, start, end)
			}
		}
		// Over-return is bounded by one window on each side.
		for p := range got {
			tm := times[p]
			if tm.Before(start.Add(-ix.Window())) || end.Add(ix.Window()).Before(tm) {
				t.Fatalf("trial %d: position %d at %v outside slack window", trial, p, tm)
			}
		}
	}
}

func TestQueryEmptyAndInverted(t *testing.T) {
	ix := Build(time.Second, []bagio.Time{ts(10, 0)})
	if got := ix.QuerySorted(ts(20, 0), ts(30, 0)); got != nil {
		t.Errorf("query of empty range = %v", got)
	}
	if got := ix.QuerySorted(ts(30, 0), ts(20, 0)); got != nil {
		t.Errorf("inverted range = %v", got)
	}
	if n := ix.WindowsScanned(ts(30, 0), ts(20, 0)); n != 0 {
		t.Errorf("inverted WindowsScanned = %d", n)
	}
}

func TestWindowsScanned(t *testing.T) {
	var times []bagio.Time
	for sec := uint32(0); sec < 100; sec++ {
		times = append(times, ts(sec, 0))
	}
	ix := Build(10*time.Second, times)
	if ix.WindowCount() != 10 {
		t.Fatalf("WindowCount = %d", ix.WindowCount())
	}
	if n := ix.WindowsScanned(ts(0, 0), ts(99, 0)); n != 10 {
		t.Errorf("full scan touches %d windows", n)
	}
	if n := ix.WindowsScanned(ts(15, 0), ts(24, 0)); n != 2 {
		t.Errorf("narrow scan touches %d windows, want 2", n)
	}
}

func TestDefaultWindow(t *testing.T) {
	ix := New(0)
	if ix.Window() != DefaultWindow {
		t.Errorf("Window = %v", ix.Window())
	}
	if ix.WindowCount() != 0 {
		t.Error("new index not empty")
	}
	if _, ok := ix.Min(); ok {
		t.Error("Min on empty index returned ok")
	}
}

func TestPointQueryQuick(t *testing.T) {
	f := func(secs []uint16, probe uint16) bool {
		var times []bagio.Time
		for _, s := range secs {
			times = append(times, ts(uint32(s), 0))
		}
		ix := Build(7*time.Second, times)
		got := map[uint32]bool{}
		for _, p := range ix.QuerySorted(ts(uint32(probe), 0), ts(uint32(probe), 0)) {
			got[p] = true
		}
		for i, tm := range times {
			if tm.Sec == uint32(probe) && !got[uint32(i)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestHalfOpenQueryTerminates: a bounded start with an unbounded end
// spans billions of window slots, and the query must touch only the
// populated windows instead of stepping through every empty one. With
// 1ns windows this test only terminates when the window table is
// searched rather than walked slot by slot.
func TestHalfOpenQueryTerminates(t *testing.T) {
	ix := New(time.Nanosecond)
	for i := uint32(0); i < 100; i++ {
		ix.Add(ts(1_600_000_000+i, 500), i)
	}
	got := ix.QuerySorted(ts(1_600_000_050, 0), bagio.MaxTime)
	if len(got) != 50 || got[0] != 50 || got[49] != 99 {
		t.Fatalf("half-open query returned %d positions (%v...)", len(got), got[:min(len(got), 3)])
	}
	if n := ix.WindowsScanned(ts(1_600_000_050, 0), bagio.MaxTime); n != 50 {
		t.Fatalf("WindowsScanned = %d", n)
	}
	// A bounded range agrees.
	// (Entries sit 500ns past each second, so second 20's entry is just
	// outside the [10.0, 20.0] bound: ten survivors.)
	dense := ix.QuerySorted(ts(1_600_000_010, 0), ts(1_600_000_020, 0))
	if len(dense) != 10 {
		t.Fatalf("bounded query returned %d positions", len(dense))
	}
}

// TestQueryMatchesOracle: over random timestamps that step backwards as
// well as forwards, QuerySorted returns exactly the positions of the
// windows overlapping the range, ascending, and WindowsScanned counts
// those windows.
func TestQueryMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const width = 3 * time.Second
	w := int64(width)
	for trial := 0; trial < 200; trial++ {
		var times []bagio.Time
		sec := uint32(rng.Intn(50))
		for i := rng.Intn(60); i > 0; i-- {
			if rng.Intn(4) == 0 {
				sec = uint32(rng.Intn(80)) // a jump, often backwards
			} else {
				sec += uint32(rng.Intn(3))
			}
			times = append(times, ts(sec, uint32(rng.Intn(1e9))))
		}
		ix := Build(width, times)
		start := ts(uint32(rng.Intn(90)), uint32(rng.Intn(1e9)))
		end := start.Add(time.Duration(rng.Intn(30e9)))
		first, last := start.Nanos()/w*w, end.Nanos()/w*w
		var want []uint32
		windows := map[int64]bool{}
		for ws := first; ws <= last; ws += w {
			for i, tm := range times {
				if tm.Nanos()/w*w == ws {
					want = append(want, uint32(i))
					windows[ws] = true
				}
			}
		}
		if got := ix.QuerySorted(start, end); !reflect.DeepEqual(got, sorted(want)) {
			t.Fatalf("trial %d: QuerySorted = %v, want %v", trial, got, sorted(want))
		}
		if got := ix.WindowsScanned(start, end); got != len(windows) {
			t.Fatalf("trial %d: WindowsScanned = %d, want %d", trial, got, len(windows))
		}
	}
}

func sorted(v []uint32) []uint32 {
	out := slices.Clone(v)
	slices.Sort(out)
	return out
}
