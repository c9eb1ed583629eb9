package faultfs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// runScript performs a fixed op sequence against a backend rooted at
// dir, stopping at the first error (like a real write path would).
func runScript(fs Backend, dir string) error {
	if err := fs.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		return err
	}
	f, err := fs.Create(filepath.Join(dir, "sub", "data"))
	if err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		if _, err := f.Write([]byte("payload-block")); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := WriteFileAtomic(fs, filepath.Join(dir, "sub", "meta"), []byte("meta v1\n"), 0o644); err != nil {
		return err
	}
	return nil
}

func TestCleanRunCountsOps(t *testing.T) {
	in := NewInjector(OS, Plan{Seed: 1})
	if err := runScript(in, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if in.Ops() == 0 || in.Crashed() {
		t.Fatalf("ops=%d crashed=%v", in.Ops(), in.Crashed())
	}
}

func TestFailAtEveryOpNeverPanicsAndIsDeterministic(t *testing.T) {
	clean := NewInjector(OS, Plan{Seed: 1})
	if err := runScript(clean, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	total := clean.Ops()
	for n := int64(1); n <= total; n++ {
		a := NewInjector(OS, Plan{Seed: 7, FailAt: n})
		errA := runScript(a, t.TempDir())
		if errA == nil {
			t.Fatalf("FailAt=%d: script succeeded", n)
		}
		if !errors.Is(errA, ErrInjected) {
			t.Fatalf("FailAt=%d: error %v not ErrInjected", n, errA)
		}
		b := NewInjector(OS, Plan{Seed: 7, FailAt: n})
		runScript(b, t.TempDir())
		ta, tb := a.Trace(), b.Trace()
		// Traces record op kind and relative order; paths differ by temp
		// dir, so compare lengths and op kinds.
		if len(ta) != len(tb) {
			t.Fatalf("FailAt=%d: traces diverge: %d vs %d ops", n, len(ta), len(tb))
		}
	}
}

func TestCrashFreezesTree(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(OS, Plan{Seed: 3, CrashAt: 4})
	err := runScript(in, dir)
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	if !in.Crashed() {
		t.Fatal("injector not crashed")
	}
	// Every later op must also fail without touching the tree.
	before := treeSizes(t, dir)
	if err := in.MkdirAll(filepath.Join(dir, "latedir"), 0o755); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash MkdirAll = %v", err)
	}
	if after := treeSizes(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("post-crash ops mutated the tree: %v -> %v", before, after)
	}
}

func TestShortWriteTearsDeterministically(t *testing.T) {
	sizes := map[int64]bool{}
	for trial := 0; trial < 2; trial++ {
		dir := t.TempDir()
		in := NewInjector(OS, Plan{Seed: 42, ShortWriteAt: 3})
		err := runScript(in, dir)
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("err = %v", err)
		}
		st, err := os.Stat(filepath.Join(dir, "sub", "data"))
		if err != nil {
			t.Fatal(err)
		}
		// Op 3 is the first data write (mkdir, create, write): the torn
		// block must be a strict prefix of one 13-byte payload block.
		if st.Size() >= 13 {
			t.Fatalf("short write persisted %d bytes, want < 13", st.Size())
		}
		sizes[st.Size()] = true
	}
	if len(sizes) != 1 {
		t.Fatalf("torn length not deterministic across runs: %v", sizes)
	}
}

func TestWriteFileAtomicLeavesNoTornFinalFile(t *testing.T) {
	clean := NewInjector(OS, Plan{Seed: 1})
	dir0 := t.TempDir()
	if err := WriteFileAtomic(clean, filepath.Join(dir0, "meta"), []byte("final content"), 0o644); err != nil {
		t.Fatal(err)
	}
	total := clean.Ops()
	for n := int64(1); n <= total; n++ {
		dir := t.TempDir()
		in := NewInjector(OS, Plan{Seed: 9, CrashAt: n})
		err := WriteFileAtomic(in, filepath.Join(dir, "meta"), []byte("final content"), 0o644)
		if err == nil {
			t.Fatalf("CrashAt=%d: atomic write succeeded", n)
		}
		if buf, err := os.ReadFile(filepath.Join(dir, "meta")); err == nil {
			t.Fatalf("CrashAt=%d: final file exists with %q (must be all-or-nothing)", n, buf)
		}
	}
	// The last op is the rename; crashing right after it means the write
	// committed even though later ops fail.
	dir := t.TempDir()
	in := NewInjector(OS, Plan{Seed: 9, CrashAt: total + 1})
	if err := WriteFileAtomic(in, filepath.Join(dir, "meta"), []byte("final content"), 0o644); err != nil {
		t.Fatal(err)
	}
	if buf, err := os.ReadFile(filepath.Join(dir, "meta")); err != nil || string(buf) != "final content" {
		t.Fatalf("committed file = %q, %v", buf, err)
	}
}

// barrierTree writes n directories of three files each under dir and
// returns every file and directory, in creation order, then dir.
func barrierTree(t *testing.T, dir string, n int) []string {
	t.Helper()
	var paths []string
	for d := 0; d < n; d++ {
		sub := filepath.Join(dir, fmt.Sprintf("topic%d", d))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"conn", "data", "index"} {
			p := filepath.Join(sub, name)
			if err := os.WriteFile(p, []byte(p), 0o644); err != nil {
				t.Fatal(err)
			}
			paths = append(paths, p)
		}
		paths = append(paths, sub)
	}
	return append(paths, dir)
}

// TestSyncAllTraceIsCanonical: the barrier is one operation whose trace
// line lists its paths sorted, however the caller ordered them and
// however the OS backend's goroutines interleave — run it under -race.
func TestSyncAllTraceIsCanonical(t *testing.T) {
	dir := t.TempDir()
	paths := barrierTree(t, dir, 3)
	reversed := slices.Clone(paths)
	slices.Reverse(reversed)
	var traces [][]string
	for _, order := range [][]string{paths, reversed} {
		in := NewInjector(OS, Plan{Seed: 1})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := in.SyncAll(order)(); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if in.Ops() != 4 {
			t.Fatalf("4 barriers counted %d operations", in.Ops())
		}
		tr := in.Trace()
		for i := range tr {
			tr[i] = tr[i][strings.Index(tr[i], " ")+1:] // drop the number: goroutines race for them
		}
		traces = append(traces, tr)
	}
	sorted := slices.Clone(paths)
	slices.Sort(sorted)
	want := "syncall " + strings.Join(sorted, " ")
	for _, tr := range traces {
		for _, line := range tr {
			if line != want {
				t.Fatalf("barrier traced as %q, want %q", line, want)
			}
		}
	}
	// More directories than syncers: each goroutine takes several, and
	// a file missing from the last one fails the barrier.
	many := barrierTree(t, t.TempDir(), 2*syncers+1)
	if err := OS.SyncAll(many)(); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(many[len(many)-2], "missing")
	if err := OS.SyncAll(append(many, missing))(); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("OS barrier over a missing file returned %v", err)
	}
}

// TestSyncAllFailAndCrash schedules a fault at the barrier: a failure
// returns ErrInjected and the injector runs on; a crash syncs nothing,
// undoes the renames into the directories it names that no sync made
// durable, and freezes the tree. A rename a SyncDir covered survives.
func TestSyncAllFailAndCrash(t *testing.T) {
	// script atomically rewrites a committed file, then a fresh one,
	// syncing the first one's directory in between, then runs the
	// barrier over both directories.
	script := func(fs Backend, dir string) error {
		paths := barrierTree(t, dir, 2)
		a, b := filepath.Join(dir, "topic0", "meta"), filepath.Join(dir, "topic1", "meta")
		if err := WriteFileAtomic(fs, a, []byte("new"), 0o644); err != nil {
			return err
		}
		if err := fs.SyncDir(filepath.Dir(a)); err != nil {
			return err
		}
		if err := WriteFileAtomic(fs, b, []byte("new"), 0o644); err != nil {
			return err
		}
		return fs.SyncAll(paths)()
	}
	seed := func(t *testing.T) string {
		dir := t.TempDir()
		for _, d := range []string{"topic0", "topic1"} {
			if err := os.MkdirAll(filepath.Join(dir, d), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "topic1", "meta"), []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	clean := NewInjector(OS, Plan{})
	if err := script(clean, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	barrier := clean.Ops() // the last operation
	if tr := clean.Trace(); !strings.Contains(tr[len(tr)-1], " syncall ") {
		t.Fatalf("last operation is %q, want the barrier", tr[len(tr)-1])
	}

	dir := seed(t)
	in := NewInjector(OS, Plan{FailAt: barrier})
	if err := script(in, dir); !errors.Is(err, ErrInjected) {
		t.Fatalf("failed barrier returned %v", err)
	}
	if err := in.SyncAll([]string{dir})(); err != nil || in.Crashed() {
		t.Fatalf("after a failed barrier: %v, crashed %v", err, in.Crashed())
	}

	dir = seed(t)
	in = NewInjector(OS, Plan{CrashAt: barrier})
	if err := script(in, dir); !errors.Is(err, ErrCrashed) || !in.Crashed() {
		t.Fatalf("crashed barrier returned %v, crashed %v", err, in.Crashed())
	}
	if buf, err := os.ReadFile(filepath.Join(dir, "topic0", "meta")); string(buf) != "new" {
		t.Errorf("the rename its SyncDir made durable reads %q, %v; want \"new\"", buf, err)
	}
	if buf, err := os.ReadFile(filepath.Join(dir, "topic1", "meta")); string(buf) != "old" {
		t.Errorf("the unsynced rename reads %q, %v after the crash; want \"old\"", buf, err)
	}
	ents, err := os.ReadDir(filepath.Join(dir, "topic1"))
	if err != nil {
		t.Fatal(err)
	}
	debris := 0
	for _, e := range ents {
		if IsTempDebris(e.Name()) {
			debris++
		}
	}
	if debris != 1 {
		t.Errorf("the undone rename left %d temporaries, want its one back", debris)
	}
	if err := in.SyncDir(dir); !errors.Is(err, ErrCrashed) {
		t.Fatalf("a sync after the crash returned %v", err)
	}
}

// TestSyncAllDecidesAtTheCall: an issued barrier is its operation at
// the call, not at its wait. A crash undoes the renames and freezes the
// tree before the wait runs, a failure numbers the barrier before the
// operations issued after it, and the wait only reports the outcome.
func TestSyncAllDecidesAtTheCall(t *testing.T) {
	const barrier = 6 // after WriteFileAtomic's createtemp, write, sync, close and rename
	for _, crash := range []bool{false, true} {
		dir := t.TempDir()
		meta := filepath.Join(dir, "meta")
		if err := os.WriteFile(meta, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		plan, want := Plan{FailAt: barrier}, ErrInjected
		if crash {
			plan, want = Plan{CrashAt: barrier}, ErrCrashed
		}
		in := NewInjector(OS, plan)
		if err := WriteFileAtomic(in, meta, []byte("new"), 0o644); err != nil {
			t.Fatal(err)
		}
		wait := in.SyncAll([]string{dir})
		if got := in.Crashed(); got != crash {
			t.Fatalf("crash=%v: crashed %v before the wait", crash, got)
		}
		if buf, _ := os.ReadFile(meta); (string(buf) == "old") != crash {
			t.Errorf("crash=%v: before the wait the meta reads %q", crash, buf)
		}
		if err := in.SyncDir(dir); (err != nil) != crash {
			t.Errorf("crash=%v: the op after the barrier returned %v", crash, err)
		}
		if err := wait(); !errors.Is(err, want) {
			t.Errorf("crash=%v: the wait returned %v, want %v", crash, err, want)
		}
		if tr := in.Trace(); len(tr) < barrier || !strings.HasPrefix(tr[barrier-1], fmt.Sprintf("%d syncall ", barrier)) {
			t.Errorf("crash=%v: the barrier is not op %d: %q", crash, barrier, tr)
		}
	}
}

func TestIsTempDebris(t *testing.T) {
	if !IsTempDebris("meta.tmp-123456") {
		t.Error("temp name not recognized")
	}
	for _, name := range []string{"meta", "data", "index", "checksum", "timeidx"} {
		if IsTempDebris(name) {
			t.Errorf("%q misclassified as debris", name)
		}
	}
}

func treeSizes(t *testing.T, root string) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			rel, _ := filepath.Rel(root, path)
			out[rel] = info.Size()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
