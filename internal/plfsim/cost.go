// Package plfsim is Fig 3's cost model of a PLFS-like checkpoint
// middleware — the closest prior container-based system the paper
// compares against (Fig 3, Table IV). Like PLFS, the modelled layer maps
// one logical file onto a container directory holding per-writer data
// logs and index logs: every write appends raw bytes to the writer's
// data log and an index record (logical offset, length, physical
// offset) to its index log; a reader merges all index logs into a
// global index before it can serve a read.
//
// The crucial contrast with BORA: PLFS's container has no data
// semantics. A bag stored through PLFS is still one opaque byte stream,
// so topic extraction must re-read and re-index everything — which is
// why Fig 3 shows PLFS costing ~2× Ext4/XFS on both bag writes and topic
// reads, and why the paper builds BORA instead of reusing checkpoint
// middleware.
package plfsim

import (
	"time"

	"repro/internal/layout"
	"repro/internal/simio"
)

// WriteGranularity is the effective size of one FUSE-mediated write
// through the PLFS-like layer (FUSE 2.9 splits large application writes
// into bounded transfers, and PLFS logs an index record per write).
const WriteGranularity = 8 * 1024

// indexLogEntry is the on-disk width of one PLFS index record: logical
// offset, length, physical offset.
const indexLogEntry = 8 + 4 + 8

// SimWrite replays recording a bag file through the PLFS-like layer for
// Fig 3a: the payload streams into the data log, but every
// WriteGranularity transfer also crosses FUSE and appends an index
// record — the structural overhead that makes PLFS ≈2× slower than the
// native file systems on bag writes.
func SimWrite(env simio.Env, bag *layout.Bag) time.Duration {
	start := env.Clock().Elapsed()
	sw := env.Software()
	total := bag.FileBytes()
	env.Metadata() // container create
	env.Metadata() // data log create
	env.Metadata() // index log create
	env.SeqWrite(total)
	writes := total / WriteGranularity
	if writes < 1 {
		writes = 1
	}
	env.CPU(time.Duration(writes) * sw.FUSEOp)
	env.SeqWrite(writes * indexLogEntry)
	env.CPU(time.Duration(writes) * sw.IndexEntry)
	return env.Clock().Elapsed() - start
}

// SimReadTopic replays extracting one topic from a bag stored through
// the PLFS-like layer for Fig 3b: the reader first merges the index
// logs (per-record CPU), then runs the stock rosbag access path with
// every read crossing FUSE and the logical→physical remap. PLFS's
// container gives no topic locality, so the data cost is the baseline's.
func SimReadTopic(env simio.Env, bag *layout.Bag, topicBytes int64, topicMsgs int) time.Duration {
	start := env.Clock().Elapsed()
	sw := env.Software()
	// Merge the index logs.
	records := bag.FileBytes() / WriteGranularity
	env.RandRead(records * indexLogEntry)
	env.CPU(time.Duration(records) * sw.IndexEntry)
	// Baseline-style open against the logical file (chunk-info walk).
	env.RandRead(13 + 4096)
	env.RandRead(bag.IndexSectionBytes())
	env.CPU(time.Duration(len(bag.Chunks)) * sw.RecordParse)
	// Message fetches through the FUSE layer: the device cost plus one
	// user/kernel crossing and one logical→physical remap per bounded
	// transfer, and a second buffer copy of the payload (FUSE 2.9 copies
	// through the kernel request pipe).
	perMsg := topicBytes / int64(maxInt(topicMsgs, 1))
	for i := 0; i < topicMsgs; i++ {
		env.RandRead(perMsg)
	}
	transfers := topicBytes / WriteGranularity
	if transfers < int64(topicMsgs) {
		transfers = int64(topicMsgs)
	}
	env.CPU(time.Duration(transfers) * (sw.FUSEOp + sw.IndexEntry))
	env.SeqRead(topicBytes) // second copy through the FUSE pipe
	env.CPU(time.Duration(topicMsgs) * sw.MsgYield)
	return env.Clock().Elapsed() - start
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
