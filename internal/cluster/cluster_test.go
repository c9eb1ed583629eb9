package cluster

import (
	"testing"
	"time"
)

func TestPVFSNetworkBound(t *testing.T) {
	p := NewPVFS()
	// Aggregate server bandwidth (4 × 3.6 GB/s) exceeds the 10 GbE NIC,
	// so a 1.25 GB stream should take ≈1 s.
	p.SeqRead(1_250_000_000)
	got := p.Clock().Elapsed()
	if got < 950*time.Millisecond || got > 1200*time.Millisecond {
		t.Errorf("1.25 GB over 10 GbE = %v, want ≈1 s", got)
	}
}

func TestPVFSSeekIncludesNetwork(t *testing.T) {
	p := NewPVFS()
	p.Seek()
	if got := p.Clock().Elapsed(); got <= p.ServerDev.SeekLatency {
		t.Errorf("PVFS seek = %v, must include a network round trip", got)
	}
}

func TestPVFSClientsShareBandwidth(t *testing.T) {
	one := NewPVFS()
	four := NewPVFS()
	four.Clients = 4
	one.SeqRead(1e9)
	four.SeqRead(1e9)
	r := float64(four.Clock().Elapsed()) / float64(one.Clock().Elapsed())
	if r < 3.5 || r > 4.5 {
		t.Errorf("4-client slowdown = %.2fx, want ≈4x", r)
	}
}

func TestPVFSEnvInterfaceOps(t *testing.T) {
	p := NewPVFS()
	p.RandRead(1 << 20)
	p.SeqWrite(1 << 20)
	p.Metadata()
	p.CPU(time.Millisecond)
	if p.Clock().Elapsed() <= time.Millisecond {
		t.Error("ops accrued no time")
	}
	if p.Software().RecordParse == 0 {
		t.Error("Software not populated")
	}
	if p.SeqRead(0); p.Clock().Elapsed() > time.Second {
		t.Error("zero-byte read charged transfer time")
	}
}

func TestLustreValidate(t *testing.T) {
	l := NewLustre()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	l.OSS = 0
	if err := l.Validate(); err == nil {
		t.Error("zero OSS accepted")
	}
}

func TestLustreAggregateBandwidth(t *testing.T) {
	l := NewLustre()
	// 3 OSS × 1.5 GB/s = 4.5 GB/s aggregate, below the 7 GB/s fabric.
	l.SeqRead(4_500_000_000)
	got := l.Clock().Elapsed()
	if got < 950*time.Millisecond || got > 1100*time.Millisecond {
		t.Errorf("4.5 GB on Lustre = %v, want ≈1 s", got)
	}
}

func TestLustreSeekQueueing(t *testing.T) {
	single := NewLustre()
	swarm := NewLustre()
	swarm.Clients = 90 // 30 per OSS
	single.Seek()
	swarm.Seek()
	r := float64(swarm.Clock().Elapsed()) / float64(single.Clock().Elapsed())
	if r < 20 || r > 40 {
		t.Errorf("seek queueing factor at 90 clients = %.1fx, want ≈30x", r)
	}
}

func TestLustreMDSQueueing(t *testing.T) {
	single := NewLustre()
	swarm := NewLustre()
	swarm.Clients = 100
	single.Metadata()
	swarm.Metadata()
	if swarm.Clock().Elapsed() <= single.Clock().Elapsed() {
		t.Error("metadata ops should queue under swarm load")
	}
	// 100 clients over 4 MDS → ≈25x the op cost (plus constant RTT).
	r := float64(swarm.Clock().Elapsed()-single.Net.RTT) / float64(single.Clock().Elapsed()-single.Net.RTT)
	if r < 20 || r > 30 {
		t.Errorf("MDS queue factor = %.1fx, want ≈25x", r)
	}
}

func TestLustreCPUUncontended(t *testing.T) {
	a, b := NewLustre(), NewLustre()
	b.Clients = 100
	a.CPU(time.Second)
	b.CPU(time.Second)
	if a.Clock().Elapsed() != b.Clock().Elapsed() {
		t.Error("client CPU must not be contended by swarm size")
	}
}

func TestLustreWritePath(t *testing.T) {
	l := NewLustre()
	l.SeqWrite(3_600_000_000) // 3 OSS × 1.2 GB/s
	got := l.Clock().Elapsed()
	if got < 950*time.Millisecond || got > 1100*time.Millisecond {
		t.Errorf("3.6 GB write = %v, want ≈1 s", got)
	}
	l.RandRead(1 << 20)
	if l.Clock().Ops() != l.Clock().Ops() { // smoke: Ops accessible
		t.Error("unreachable")
	}
}

func TestClientsDefaultsToOne(t *testing.T) {
	p := NewPVFS()
	p.Clients = 0
	p.SeqRead(1e9)
	q := NewPVFS()
	q.Clients = 1
	q.SeqRead(1e9)
	if p.Clock().Elapsed() != q.Clock().Elapsed() {
		t.Error("Clients=0 should behave like a single client")
	}
	l := NewLustre()
	l.Clients = -5
	l.Seek()
	m := NewLustre()
	m.Seek()
	if l.Clock().Elapsed() != m.Clock().Elapsed() {
		t.Error("negative Clients should behave like a single client")
	}
}
