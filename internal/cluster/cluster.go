// Package cluster models the paper's two distributed platforms as
// simio.Env implementations: the 4-node all-SSD PVFS cluster on 10 GbE
// (Section IV-D) and the Tianhe-1A Lustre storage subsystem — 3 object
// storage servers, 4 metadata servers, 56 Gb/s InfiniBand — used for the
// robotic-swarm analysis (Section IV-E).
//
// Contention is modeled at the shared resources: with C concurrent
// client processes, data transfers share the object servers' aggregate
// bandwidth, repositionings queue at the object servers' heads, and
// namespace operations queue at the metadata servers. Per-client CPU
// (parsing, sorting, yield) is not contended — every swarm process runs
// on its own compute node.
package cluster

import (
	"fmt"
	"time"

	"repro/internal/simio"
)

// PVFS models the 4-node PVFS cluster: every node is both a data server
// (two NVMe drives in soft RAID-0) and reachable over 10 GbE; files are
// striped round-robin across servers.
type PVFS struct {
	Servers     int
	StripeSize  int64
	ServerDev   simio.Device  // per-server storage (RAID-0 of two NVMe)
	Net         simio.Network // client NIC / interconnect
	SW          simio.Software
	Clients     int           // concurrent client processes
	PerStripeOp time.Duration // server-side request handling per stripe

	clock *simio.Clock
}

// NewPVFS builds the paper's 4-node PVFS platform for one client.
func NewPVFS() *PVFS {
	raid0 := simio.NVMeSSD
	raid0.Name = "nvme-raid0"
	raid0.ReadBW *= 2
	raid0.WriteBW *= 2
	return &PVFS{
		Servers:     4,
		StripeSize:  64 * 1024,
		ServerDev:   raid0,
		Net:         simio.TenGbE,
		SW:          simio.DefaultSW,
		Clients:     1,
		PerStripeOp: 4 * time.Microsecond,
		clock:       &simio.Clock{},
	}
}

func (p *PVFS) clients() float64 {
	if p.Clients < 1 {
		return 1
	}
	return float64(p.Clients)
}

// effReadBW returns this client's share of min(NIC, aggregate servers).
func (p *PVFS) effReadBW() float64 {
	agg := p.ServerDev.ReadBW * float64(p.Servers)
	bw := p.Net.Bandwidth
	if agg < bw {
		bw = agg
	}
	return bw / p.clients()
}

func (p *PVFS) effWriteBW() float64 {
	agg := p.ServerDev.WriteBW * float64(p.Servers)
	bw := p.Net.Bandwidth
	if agg < bw {
		bw = agg
	}
	return bw / p.clients()
}

func (p *PVFS) xfer(n int64, bw float64) {
	if n > 0 {
		p.clock.Advance(time.Duration(float64(n) / bw * float64(time.Second)))
		// Per-stripe request handling at the servers.
		stripes := n/p.StripeSize + 1
		p.clock.Advance(time.Duration(stripes) * p.PerStripeOp / time.Duration(p.Servers))
	}
}

// Seek implements simio.Env: one network round trip plus a device
// repositioning on the stripe's server.
func (p *PVFS) Seek() {
	p.clock.Advance(p.Net.RTT + p.ServerDev.SeekLatency)
}

// SeqRead implements simio.Env.
func (p *PVFS) SeqRead(n int64) { p.xfer(n, p.effReadBW()) }

// RandRead implements simio.Env.
func (p *PVFS) RandRead(n int64) { p.Seek(); p.SeqRead(n) }

// SeqWrite implements simio.Env.
func (p *PVFS) SeqWrite(n int64) { p.xfer(n, p.effWriteBW()) }

// Metadata implements simio.Env: round trip to the (single) PVFS
// metadata server.
func (p *PVFS) Metadata() {
	p.clock.Advance(p.Net.RTT + p.ServerDev.MetadataOp*time.Duration(p.clients()))
}

// CPU implements simio.Env (client-local, uncontended).
func (p *PVFS) CPU(d time.Duration) { p.clock.Advance(d) }

// Clock implements simio.Env.
func (p *PVFS) Clock() *simio.Clock { return p.clock }

// Software implements simio.Env.
func (p *PVFS) Software() simio.Software { return p.SW }

// Lustre models the Tianhe-1A storage subsystem.
type Lustre struct {
	OSS       int           // object storage servers
	MDS       int           // metadata servers
	OSTDev    simio.Device  // per-OSS backing array (HDD-based)
	Net       simio.Network // InfiniBand fabric
	SW        simio.Software
	Clients   int // concurrent swarm processes
	MDSOpCost time.Duration

	clock *simio.Clock
}

// NewLustre builds the paper's Lustre platform for one client; set
// Clients before use when modeling a swarm.
func NewLustre() *Lustre {
	ost := simio.SATAHDD
	ost.Name = "lustre-ost-array"
	// Each OSS fronts a RAID array of disks: high sequential bandwidth,
	// still disk-bound on repositioning.
	ost.ReadBW = 1.5e9
	ost.WriteBW = 1.2e9
	return &Lustre{
		OSS:       3,
		MDS:       4,
		OSTDev:    ost,
		Net:       simio.FDRInfiniBand,
		SW:        simio.DefaultSW,
		Clients:   1,
		MDSOpCost: 50 * time.Microsecond,
		clock:     &simio.Clock{},
	}
}

func (l *Lustre) clients() float64 {
	if l.Clients < 1 {
		return 1
	}
	return float64(l.Clients)
}

// Validate reports malformed platform parameters.
func (l *Lustre) Validate() error {
	if l.OSS < 1 || l.MDS < 1 {
		return fmt.Errorf("cluster: lustre needs at least one OSS and MDS (have %d/%d)", l.OSS, l.MDS)
	}
	return l.OSTDev.Validate()
}

// Seek implements simio.Env: repositionings queue at the OSS disk heads,
// so with C clients sharing OSS object servers each repositioning
// effectively waits for C/OSS of a disk seek.
func (l *Lustre) Seek() {
	queue := l.clients() / float64(l.OSS)
	if queue < 1 {
		queue = 1
	}
	l.clock.Advance(l.Net.RTT + time.Duration(float64(l.OSTDev.SeekLatency)*queue))
}

func (l *Lustre) xfer(n int64, perOSS float64) {
	if n <= 0 {
		return
	}
	bw := perOSS * float64(l.OSS)
	if l.Net.Bandwidth < bw {
		bw = l.Net.Bandwidth
	}
	bw /= l.clients()
	l.clock.Advance(time.Duration(float64(n) / bw * float64(time.Second)))
}

// SeqRead implements simio.Env: streaming reads share the aggregate OSS
// bandwidth.
func (l *Lustre) SeqRead(n int64) { l.xfer(n, l.OSTDev.ReadBW) }

// RandRead implements simio.Env.
func (l *Lustre) RandRead(n int64) { l.Seek(); l.SeqRead(n) }

// SeqWrite implements simio.Env.
func (l *Lustre) SeqWrite(n int64) { l.xfer(n, l.OSTDev.WriteBW) }

// Metadata implements simio.Env: namespace operations queue across the
// MDS pool.
func (l *Lustre) Metadata() {
	queue := l.clients() / float64(l.MDS)
	if queue < 1 {
		queue = 1
	}
	l.clock.Advance(l.Net.RTT + time.Duration(float64(l.MDSOpCost)*queue))
}

// CPU implements simio.Env (per-compute-node, uncontended).
func (l *Lustre) CPU(d time.Duration) { l.clock.Advance(d) }

// Clock implements simio.Env.
func (l *Lustre) Clock() *simio.Clock { return l.clock }

// Software implements simio.Env.
func (l *Lustre) Software() simio.Software { return l.SW }
