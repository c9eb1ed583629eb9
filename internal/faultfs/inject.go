package faultfs

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
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
	// the tree: it and every later operation return ErrCrashed.
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
}

// NewInjector wraps under with the fault schedule in plan.
func NewInjector(under Backend, plan Plan) *Injector {
	return &Injector{under: under, plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
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
	return in.dirOp("rename", newpath, func() error { return in.under.Rename(oldpath, newpath) })
}

func (in *Injector) Remove(path string) error {
	return in.dirOp("remove", path, func() error { return in.under.Remove(path) })
}

func (in *Injector) Truncate(path string, size int64) error {
	return in.dirOp("truncate", path, func() error { return in.under.Truncate(path, size) })
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
