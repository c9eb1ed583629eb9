// Package simio is the storage cost simulator standing in for the
// paper's three hardware platforms (single-node NVMe server, 4-node PVFS
// cluster on 10 GbE, Tianhe-1A Lustre subsystem on InfiniBand). A Clock
// accrues virtual time as access-path simulators replay the op sequences
// of the baseline rosbag path and the BORA path; devices, networks and
// software layers contribute per-op latencies and byte-rate costs.
//
// The substitution argument (DESIGN.md §3): relative performance in the
// paper's experiments is determined by op counts and locality — how many
// seeks, how many bytes, how many metadata round trips each path issues —
// which this model preserves exactly. Absolute seconds are calibrated to
// plausible hardware constants but are not claimed to match the paper's
// testbeds.
package simio

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// Clock accrues virtual time. The zero value is ready for use.
type Clock struct {
	elapsed time.Duration
	ops     OpCounts

	// Optional observability attachment (AttachObs): simulated operations
	// record sim-time histograms and trace spans whose timestamps are the
	// virtual elapsed time, under the same op names as the real path.
	reg   *obs.Registry
	tr    *obs.Tracer
	track uint64
}

// OpCounts tallies simulated operations by kind.
type OpCounts struct {
	Seeks       int
	SeqReads    int
	SeqWrites   int
	MetadataOps int
	NetRTTs     int
	BytesRead   int64
	BytesSent   int64
}

// Elapsed returns the accrued virtual time.
func (c *Clock) Elapsed() time.Duration { return c.elapsed }

// Ops returns the accrued op counts.
func (c *Clock) Ops() OpCounts { return c.ops }

// Advance adds raw virtual time (used for CPU-bound costs).
func (c *Clock) Advance(d time.Duration) {
	if d > 0 {
		c.elapsed += d
	}
}

// Reset zeroes the clock's time and op counts. The observability
// attachment, if any, is kept.
func (c *Clock) Reset() { c.elapsed = 0; c.ops = OpCounts{} }

// AttachObs routes the clock's simulated operations to reg: Span-like
// sim ops (StartOp) record per-op histograms whose durations are
// VIRTUAL time deltas, and — when reg carries a tracer — emit trace
// events timestamped in virtual time. Each attached clock takes its own
// trace lane, so e.g. the baseline and BORA replays of one experiment
// render side by side. A nil registry detaches.
func (c *Clock) AttachObs(reg *obs.Registry) {
	c.reg = reg
	c.tr = reg.Tracer()
	if c.tr != nil {
		c.track = c.tr.NewTrack()
	}
}

// Span is an in-flight simulated operation: its duration is the virtual
// time the clock accrues between StartOp and End, recorded to the
// attached registry's op histogram and (when tracing) as a sim-time
// trace span. The zero Span is a valid no-op.
type Span struct {
	c      *Clock
	op     *obs.Op
	start  time.Duration
	id     uint64
	parent uint64
}

// StartOp begins a simulated span on the named op. On a clock with no
// registry attached the returned zero Span is a no-op.
func (c *Clock) StartOp(name string) Span {
	if c == nil || c.reg == nil {
		return Span{}
	}
	s := Span{c: c, op: c.reg.Op(name), start: c.elapsed}
	s.id = c.tr.Begin(name, int64(c.elapsed), 0, c.track)
	return s
}

// Child begins a nested simulated span under s, on the same clock and
// trace lane.
func (s Span) Child(name string) Span {
	if s.c == nil {
		return Span{}
	}
	cs := Span{c: s.c, op: s.c.reg.Op(name), start: s.c.elapsed, parent: s.id}
	cs.id = s.c.tr.Begin(name, int64(s.c.elapsed), s.id, s.c.track)
	return cs
}

// End records the span with no payload bytes.
func (s Span) End() { s.EndBytes(0) }

// EndBytes records the span's virtual duration and payload volume.
func (s Span) EndBytes(bytes int64) {
	if s.c == nil {
		return
	}
	s.op.Observe(s.c.elapsed-s.start, bytes)
	s.c.tr.End(s.op.Name(), int64(s.c.elapsed), s.id, s.c.track)
}

// Device models one storage device with positioning latency and
// sequential bandwidth. RandomRead/RandomWrite pay the positioning cost;
// the sequential variants pay only the byte cost.
type Device struct {
	Name        string
	SeekLatency time.Duration // cost of one repositioning (seek/rotate or FTL lookup)
	ReadBW      float64       // bytes per second, sequential
	WriteBW     float64       // bytes per second, sequential
	MetadataOp  time.Duration // cost of one namespace op (open/stat/create)
}

// Validate reports malformed device profiles.
func (d *Device) Validate() error {
	if d.ReadBW <= 0 || d.WriteBW <= 0 {
		return fmt.Errorf("simio: device %q has non-positive bandwidth", d.Name)
	}
	if d.SeekLatency < 0 || d.MetadataOp < 0 {
		return fmt.Errorf("simio: device %q has negative latency", d.Name)
	}
	return nil
}

func xferTime(n int64, bw float64) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / bw * float64(time.Second))
}

// Seek charges one repositioning.
func (d *Device) Seek(c *Clock) {
	c.ops.Seeks++
	c.elapsed += d.SeekLatency
}

// SeqRead charges a sequential read of n bytes (no positioning).
func (d *Device) SeqRead(c *Clock, n int64) {
	c.ops.SeqReads++
	c.ops.BytesRead += n
	c.elapsed += xferTime(n, d.ReadBW)
}

// RandRead charges a positioning plus a read of n bytes.
func (d *Device) RandRead(c *Clock, n int64) {
	d.Seek(c)
	d.SeqRead(c, n)
}

// SeqWrite charges a sequential write of n bytes.
func (d *Device) SeqWrite(c *Clock, n int64) {
	c.ops.SeqWrites++
	c.elapsed += xferTime(n, d.WriteBW)
}

// Metadata charges one namespace operation.
func (d *Device) Metadata(c *Clock) {
	c.ops.MetadataOps++
	c.elapsed += d.MetadataOp
}

// Network models one link with per-message latency and bandwidth.
type Network struct {
	Name      string
	RTT       time.Duration // round-trip latency of one request
	Bandwidth float64       // bytes per second
}

// roundTrip charges one request/response exchange carrying n bytes.
func (n *Network) roundTrip(c *Clock, bytes int64) {
	c.ops.NetRTTs++
	c.ops.BytesSent += bytes
	c.elapsed += n.RTT + xferTime(bytes, n.Bandwidth)
}

// transfer charges a bulk transfer of n bytes (streaming, latency paid
// once).
func (n *Network) transfer(c *Clock, bytes int64) {
	c.ops.BytesSent += bytes
	c.elapsed += n.RTT + xferTime(bytes, n.Bandwidth)
}

// Software layer costs, charged per operation. The baseline constants
// are calibrated against the rosbag Python API the paper measures (e.g.
// "opening a 21 GB bag took more than seven seconds" on SSD → ~250 µs per
// chunk-info record across ~28k chunks).
type Software struct {
	// FUSEOp is the user/kernel crossing overhead of one FUSE-mediated
	// operation (the paper uses FUSE 2.9 for transparency; Fig 9's
	// one-time capture overhead comes from this charge per message).
	FUSEOp time.Duration
	// RecordParse is the per-record cost of the baseline's index-section
	// traversal during open (Fig 4a's "iteration").
	RecordParse time.Duration
	// IndexRecordParse is the per-index-record cost when the baseline
	// reads a chunk's trailing index records during a query.
	IndexRecordParse time.Duration
	// IndexEntry is the cost of handling one index entry (hash insert /
	// list append) while building in-memory index structures.
	IndexEntry time.Duration
	// SortEntry is the per-entry per-level cost of the baseline's
	// merge-sort of index entries (charged n·log2(n) times for n).
	SortEntry time.Duration
	// HashInsert is the cost of one tag-table insert during the
	// BORA-assisted open (Table I's time column derives from this).
	HashInsert time.Duration
	// MsgYield is the per-message cost of materializing a message for
	// the application; both paths pay it for every delivered message.
	MsgYield time.Duration
	// WindowLookup is the per-window cost of BORA's coarse time-index
	// arithmetic and lookup.
	WindowLookup time.Duration
}

// Profile bundles the cost model of one evaluation platform.
type Profile struct {
	Name string
	Dev  Device
	Net  *Network // nil for local platforms
	SW   Software
}

// Profiles calibrated against the paper's three platforms plus an HDD
// variant used in the Lustre OST model. Constants are representative of
// the hardware named in Section IV.
var (
	// NVMeSSD models the 256 GB NVMe drives of the single-node server.
	NVMeSSD = Device{
		Name:        "nvme-ssd",
		SeekLatency: 80 * time.Microsecond,
		ReadBW:      1.8e9,
		WriteBW:     1.1e9,
		MetadataOp:  60 * time.Microsecond,
	}
	// SATAHDD models a 7.2k rpm disk (Lustre OST backing store; the
	// paper attributes Fig 17's read gains to sequential HDD access).
	SATAHDD = Device{
		Name:        "sata-hdd",
		SeekLatency: 8 * time.Millisecond,
		ReadBW:      160e6,
		WriteBW:     140e6,
		MetadataOp:  4 * time.Millisecond,
	}
	// TenGbE is the PVFS cluster interconnect. The RTT models a full
	// client→server small-op exchange through the TCP stack and PVFS
	// request processing, not the raw wire latency.
	TenGbE = Network{Name: "10gbe", RTT: 350 * time.Microsecond, Bandwidth: 1.25e9}
	// FDRInfiniBand is the Tianhe-1A 56 Gb/s fabric.
	FDRInfiniBand = Network{Name: "ib-fdr", RTT: 15 * time.Microsecond, Bandwidth: 7e9}

	// DefaultSW is the software-layer calibration shared by platforms.
	DefaultSW = Software{
		FUSEOp:           6 * time.Microsecond,
		RecordParse:      250 * time.Microsecond,
		IndexRecordParse: 60 * time.Microsecond,
		IndexEntry:       150 * time.Nanosecond,
		SortEntry:        120 * time.Nanosecond,
		HashInsert:       350 * time.Nanosecond,
		MsgYield:         150 * time.Microsecond,
		WindowLookup:     1 * time.Microsecond,
	}
)

// Ext4NVMe and XFSNVMe model the two local file systems of the paper's
// single-node evaluation, both on the NVMe device: XFS extracts slightly
// higher sequential write bandwidth and cheaper namespace ops, which is
// why BORA's fixed per-message capture cost is relatively larger on XFS
// in Fig 9 (51 % average overhead vs 26 % on Ext4).
var (
	Ext4NVMe = Device{
		Name:        "ext4-nvme",
		SeekLatency: 80 * time.Microsecond,
		ReadBW:      1.8e9,
		WriteBW:     1.1e9,
		MetadataOp:  60 * time.Microsecond,
	}
	XFSNVMe = Device{
		Name:        "xfs-nvme",
		SeekLatency: 75 * time.Microsecond,
		ReadBW:      1.9e9,
		WriteBW:     1.45e9,
		MetadataOp:  45 * time.Microsecond,
	}
)

// SingleNodeSSD is the paper's single-node server (Section IV-C),
// defaulting to the Ext4 file system.
func SingleNodeSSD() Profile {
	return Profile{Name: "single-node-ssd", Dev: Ext4NVMe, SW: DefaultSW}
}

// SingleNodeXFS is the single-node server with the XFS control group.
func SingleNodeXFS() Profile {
	return Profile{Name: "single-node-xfs", Dev: XFSNVMe, SW: DefaultSW}
}

// SingleNodeHDD is the HDD thought-experiment of the discussion section.
func SingleNodeHDD() Profile {
	return Profile{Name: "single-node-hdd", Dev: SATAHDD, SW: DefaultSW}
}
