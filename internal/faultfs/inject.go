package faultfs

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the error returned by an operation the schedule marked
// as failing (FailAt / ShortWriteAt).
var ErrInjected = errors.New("faultfs: injected I/O error")

// ErrCrashed is returned by every operation at and after the crash
// point: the backend behaves like a machine that lost power — the
// directory tree is frozen exactly as the preceding operations left it.
var ErrCrashed = errors.New("faultfs: backend crashed")

// Plan is a deterministic fault schedule. Operations are counted from 1
// in the order the injector sees them (every Backend call and every
// File Write/Sync/Close is one operation); a zero field disables that
// fault. Given the same operation sequence and Seed, a Plan always
// produces the same faults, torn-write lengths and post-crash tree.
type Plan struct {
	// Seed drives the deterministic RNG used for torn-write lengths.
	Seed int64
	// FailAt makes the Nth operation return ErrInjected with no effect.
	FailAt int64
	// ShortWriteAt makes the Nth operation, if it writes data, persist
	// only a seeded-random prefix and return ErrInjected.
	ShortWriteAt int64
	// CrashAt tears the Nth operation like ShortWriteAt, then freezes
	// the tree: it and every later operation return ErrCrashed. A crash
	// at a sync (SyncAll, SyncDir) syncs nothing and loses what the sync
	// was for: every rename into a directory it names that no earlier
	// sync of that directory made durable is undone, newest first — the
	// file is back under its old name and the destination holds what it
	// held before — as a power cut would leave a directory whose entries
	// never reached the disk.
	CrashAt int64
	// Latency is added to every operation before it runs.
	Latency time.Duration
}

// Injector is a Backend that applies a Plan on top of another Backend.
// It is safe for concurrent use; the operation counter is global across
// all files and directory operations.
type Injector struct {
	under Backend
	plan  Plan

	mu      sync.Mutex
	rng     *rand.Rand
	ops     int64
	crashed bool
	trace   []string
	// unsynced holds, per directory, the renames into it that no sync of
	// the directory has yet made durable, oldest first.
	unsynced map[string][]rename
}

// rename is one rename a crash at a sync of its directory undoes.
type rename struct {
	from, to string
	prev     []byte // to's content before the rename
	existed  bool   // whether to existed before the rename
}

// NewInjector wraps under with the fault schedule in plan.
func NewInjector(under Backend, plan Plan) *Injector {
	return &Injector{under: under, plan: plan, rng: rand.New(rand.NewSource(plan.Seed)), unsynced: map[string][]rename{}}
}

// Ops returns the number of operations observed so far. A clean
// (fault-free) run's total is the sweep bound for crash points.
func (in *Injector) Ops() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.ops
}

// Crashed reports whether the crash point has been reached.
func (in *Injector) Crashed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed
}

// Trace returns the op log ("N op path"), for determinism assertions.
func (in *Injector) Trace() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]string(nil), in.trace...)
}

type verdict int

const (
	vOK verdict = iota
	vFail
	vShort
	vCrash
	vDead // after the crash point
)

// step accounts one operation and decides its fate. tear receives the
// seeded prefix length for torn writes (only consulted for vShort and
// vCrash on n-byte writes).
func (in *Injector) step(op, path string, n int) (verdict, int) {
	if in.plan.Latency > 0 {
		time.Sleep(in.plan.Latency)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		return vDead, 0
	}
	in.ops++
	in.trace = append(in.trace, fmt.Sprintf("%d %s %s", in.ops, op, path))
	keep := 0
	if n > 0 {
		// Consume the RNG only at fault points so unrelated plan changes
		// do not shift later torn-write lengths.
		switch in.ops {
		case in.plan.ShortWriteAt, in.plan.CrashAt:
			keep = in.rng.Intn(n) // strictly short: 0..n-1 bytes survive
		}
	}
	switch in.ops {
	case in.plan.CrashAt:
		in.crashed = true
		return vCrash, keep
	case in.plan.FailAt:
		return vFail, 0
	case in.plan.ShortWriteAt:
		return vShort, keep
	}
	return vOK, 0
}

// dirOp runs a metadata operation (no payload to tear).
func (in *Injector) dirOp(op, path string, fn func() error) error {
	switch v, _ := in.step(op, path, 0); v {
	case vDead, vCrash:
		return fmt.Errorf("%s %s: %w", op, path, ErrCrashed)
	case vFail, vShort:
		return fmt.Errorf("%s %s: %w", op, path, ErrInjected)
	}
	return fn()
}

func (in *Injector) MkdirAll(path string, perm os.FileMode) error {
	return in.dirOp("mkdir", path, func() error { return in.under.MkdirAll(path, perm) })
}

func (in *Injector) Create(path string) (File, error) {
	var f File
	err := in.dirOp("create", path, func() (err error) {
		f, err = in.under.Create(path)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &injectFile{in: in, f: f}, nil
}

func (in *Injector) CreateTemp(dir, pattern string) (File, error) {
	var f File
	err := in.dirOp("createtemp", dir+"/"+pattern, func() (err error) {
		f, err = in.under.CreateTemp(dir, pattern)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &injectFile{in: in, f: f}, nil
}

func (in *Injector) Rename(oldpath, newpath string) error {
	prev, err := os.ReadFile(newpath)
	r := rename{from: oldpath, to: newpath, prev: prev, existed: err == nil}
	return in.dirOp("rename", newpath, func() error {
		if err := in.under.Rename(oldpath, newpath); err != nil {
			return err
		}
		in.mu.Lock()
		dir := filepath.Dir(newpath)
		in.unsynced[dir] = append(in.unsynced[dir], r)
		in.mu.Unlock()
		return nil
	})
}

func (in *Injector) Remove(path string) error {
	return in.dirOp("remove", path, func() error { return in.under.Remove(path) })
}

func (in *Injector) Truncate(path string, size int64) error {
	return in.dirOp("truncate", path, func() error { return in.under.Truncate(path, size) })
}

// SyncAll is one operation, traced as "syncall" with its paths sorted
// and space-separated, so the barrier is the same crash point on every
// run whatever order the caller listed them in. Its fate is decided at
// the call — a crash undoes its renames there, a failure is what the
// wait returns — so the op numbers do not depend on when the wait runs.
func (in *Injector) SyncAll(paths []string) func() error {
	var wait func() error
	if err := in.sync("syncall", paths, func() error { wait = in.under.SyncAll(paths); return nil }); err != nil {
		return func() error { return err }
	}
	return wait
}

func (in *Injector) SyncDir(path string) error {
	return in.sync("syncdir", []string{path}, func() error { return in.under.SyncDir(path) })
}

// sync runs a sync of paths as one operation: a crash at it undoes the
// renames into those paths that no sync has made durable, and a sync
// that returns makes them durable.
func (in *Injector) sync(op string, paths []string, fn func() error) error {
	sorted := slices.Clone(paths)
	slices.Sort(sorted)
	v, _ := in.step(op, strings.Join(sorted, " "), 0)
	what := fmt.Sprintf("%s of %d paths", op, len(paths))
	if len(paths) == 1 {
		what = op + " " + paths[0]
	}
	switch v {
	case vCrash:
		if err := in.undoRenames(paths); err != nil {
			return fmt.Errorf("%s: %w (the post-crash tree is not the modelled one: %v)", what, ErrCrashed, err)
		}
		return fmt.Errorf("%s: %w", what, ErrCrashed)
	case vDead:
		return fmt.Errorf("%s: %w", what, ErrCrashed)
	case vFail, vShort:
		return fmt.Errorf("%s: %w", what, ErrInjected)
	}
	if err := fn(); err != nil {
		return err
	}
	in.mu.Lock()
	for _, p := range paths {
		delete(in.unsynced, p)
	}
	in.mu.Unlock()
	return nil
}

// undoRenames reverts the unsynced renames into dirs, newest first, and
// returns the first error. It acts on the tree beneath the injector
// directly: it models what the disk lost, not an operation of the
// program.
func (in *Injector) undoRenames(dirs []string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	var first error
	for _, dir := range dirs {
		rs := in.unsynced[dir]
		for i := len(rs) - 1; i >= 0; i-- {
			err := os.Rename(rs[i].to, rs[i].from)
			if err == nil && rs[i].existed {
				err = os.WriteFile(rs[i].to, rs[i].prev, 0o644)
			}
			if first == nil {
				first = err
			}
		}
		delete(in.unsynced, dir)
	}
	return first
}

// injectFile threads per-write fault decisions through an open file.
type injectFile struct {
	in *Injector
	f  File
}

func (jf *injectFile) Name() string { return jf.f.Name() }

func (jf *injectFile) Write(p []byte) (int, error) {
	v, keep := jf.in.step("write", jf.f.Name(), len(p))
	switch v {
	case vDead:
		return 0, fmt.Errorf("write %s: %w", jf.f.Name(), ErrCrashed)
	case vFail:
		return 0, fmt.Errorf("write %s: %w", jf.f.Name(), ErrInjected)
	case vShort, vCrash:
		n, _ := jf.f.Write(p[:keep])
		if v == vCrash {
			return n, fmt.Errorf("write %s: %w", jf.f.Name(), ErrCrashed)
		}
		return n, fmt.Errorf("write %s: short write %d of %d: %w", jf.f.Name(), n, len(p), ErrInjected)
	}
	return jf.f.Write(p)
}

func (jf *injectFile) Sync() error {
	switch v, _ := jf.in.step("sync", jf.f.Name(), 0); v {
	case vDead, vCrash:
		return fmt.Errorf("sync %s: %w", jf.f.Name(), ErrCrashed)
	case vFail, vShort:
		return fmt.Errorf("sync %s: %w", jf.f.Name(), ErrInjected)
	}
	return jf.f.Sync()
}

// Close always releases the underlying descriptor (so long sweeps do
// not leak fds) but still reports scheduled faults.
func (jf *injectFile) Close() error {
	v, _ := jf.in.step("close", jf.f.Name(), 0)
	err := jf.f.Close()
	switch v {
	case vDead, vCrash:
		return fmt.Errorf("close %s: %w", jf.f.Name(), ErrCrashed)
	case vFail, vShort:
		return fmt.Errorf("close %s: %w", jf.f.Name(), ErrInjected)
	}
	return err
}
