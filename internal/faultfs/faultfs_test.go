package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
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
