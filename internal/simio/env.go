package simio

import "time"

// Env is the abstract I/O target access-path simulators replay against.
// A local platform (LocalEnv) charges device costs directly; cluster
// platforms (internal/cluster) implement Env with striping, network hops
// and metadata-server round trips.
type Env interface {
	// Seek charges one repositioning.
	Seek()
	// SeqRead charges a sequential read of n bytes.
	SeqRead(n int64)
	// RandRead charges a repositioning plus a read of n bytes.
	RandRead(n int64)
	// SeqWrite charges a sequential write of n bytes.
	SeqWrite(n int64)
	// Metadata charges one namespace operation (open/create/stat/readdir
	// entry).
	Metadata()
	// CPU charges host compute time.
	CPU(d time.Duration)
	// Clock exposes the accruing virtual clock.
	Clock() *Clock
	// Software exposes the software-layer cost constants.
	Software() Software
}

// LocalEnv charges a single local device — the paper's single-node
// platform (Ext4/XFS on NVMe, Section IV-C).
type LocalEnv struct {
	P Profile
	C *Clock
}

// NewLocalEnv builds a LocalEnv with a fresh clock.
func NewLocalEnv(p Profile) *LocalEnv { return &LocalEnv{P: p, C: &Clock{}} }

// Seek implements Env.
func (e *LocalEnv) Seek() { e.P.Dev.Seek(e.C) }

// SeqRead implements Env.
func (e *LocalEnv) SeqRead(n int64) { e.P.Dev.SeqRead(e.C, n) }

// RandRead implements Env.
func (e *LocalEnv) RandRead(n int64) { e.P.Dev.RandRead(e.C, n) }

// SeqWrite implements Env.
func (e *LocalEnv) SeqWrite(n int64) { e.P.Dev.SeqWrite(e.C, n) }

// Metadata implements Env.
func (e *LocalEnv) Metadata() { e.P.Dev.Metadata(e.C) }

// CPU implements Env.
func (e *LocalEnv) CPU(d time.Duration) { e.C.Advance(d) }

// Clock implements Env.
func (e *LocalEnv) Clock() *Clock { return e.C }

// Software implements Env.
func (e *LocalEnv) Software() Software { return e.P.SW }
