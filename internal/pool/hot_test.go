package pool

import (
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// TestHotHandleEvictionProtection: an entry whose bag is hot in the
// pool's rate tracker survives LRU pressure — the pool evicts a colder
// entry instead — but protection degrades to plain LRU when everything
// resident is hot (it bends the policy, never wedges it).
func TestHotHandleEvictionProtection(t *testing.T) {
	reg := obs.NewRegistry()
	b := newBackend(t, reg)
	src := filepath.Join(t.TempDir(), "src.bag")
	writeBag(t, src, 2, 10)
	for _, name := range []string{"bag1", "bag2", "bag3"} {
		duplicate(t, b, src, name)
	}
	p := New(b, Options{maxBags: 2, HotQPS: 8})

	mustAcquire := func(name string) {
		t.Helper()
		if _, err := p.Acquire(name); err != nil {
			t.Fatal(err)
		}
	}
	mustAcquire("bag1")
	mustAcquire("bag2")
	// bag1 is the LRU victim-by-age, but it is hot: eviction must take
	// bag2 instead when bag3 arrives.
	for i := 0; i < 100; i++ {
		p.NoteQuery("bag1")
	}
	if hb := p.HotBags(); len(hb) != 1 || hb[0] != "bag1" {
		t.Fatalf("HotBags = %v, want [bag1]: eviction and the report share one tracker", hb)
	}
	mustAcquire("bag3")

	s := p.Stats()
	if s.HandlesResident != 2 {
		t.Fatalf("resident = %d, want 2", s.HandlesResident)
	}
	missesBefore := s.HandleMisses
	mustAcquire("bag1") // still resident: a hit, no cold open
	if s2 := p.Stats(); s2.HandleMisses != missesBefore {
		t.Error("hot bag1 was evicted despite protection")
	}
	mustAcquire("bag2") // evicted: a miss
	if s2 := p.Stats(); s2.HandleMisses != missesBefore+1 {
		t.Error("cold bag2 survived eviction; the wrong victim was chosen")
	}

	// All-hot fallback: with every resident entry hot, pressure still
	// evicts (plain LRU) rather than letting the pool exceed MaxBags.
	for i := 0; i < 100; i++ {
		p.NoteQuery("bag2")
		p.NoteQuery("bag3")
	}
	mustAcquire("bag3")
	evictionsBefore := p.Stats().HandleEvictions
	mustAcquire("bag1")
	s3 := p.Stats()
	if s3.HandlesResident != 2 {
		t.Fatalf("all-hot: resident = %d, want 2", s3.HandlesResident)
	}
	if s3.HandleEvictions != evictionsBefore+1 {
		t.Errorf("all-hot: evictions = %d, want %d", s3.HandleEvictions, evictionsBefore+1)
	}
}
