package simio

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockAccrual(t *testing.T) {
	var c Clock
	if c.Elapsed() != 0 {
		t.Error("fresh clock not zero")
	}
	c.Advance(time.Second)
	c.Advance(-time.Second) // negative advances ignored
	if c.Elapsed() != time.Second {
		t.Errorf("Elapsed = %v", c.Elapsed())
	}
	c.Reset()
	if c.Elapsed() != 0 || c.Ops() != (OpCounts{}) {
		t.Error("Reset incomplete")
	}
}

func TestDeviceCosts(t *testing.T) {
	d := Device{Name: "test", SeekLatency: time.Millisecond, ReadBW: 1e9, WriteBW: 5e8, MetadataOp: 100 * time.Microsecond}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	var c Clock
	d.SeqRead(&c, 1e9)
	if got := c.Elapsed(); got != time.Second {
		t.Errorf("1 GB at 1 GB/s = %v", got)
	}
	c.Reset()
	d.RandRead(&c, 1e9)
	if got := c.Elapsed(); got != time.Second+time.Millisecond {
		t.Errorf("rand read = %v", got)
	}
	c.Reset()
	d.SeqWrite(&c, 5e8)
	if got := c.Elapsed(); got != time.Second {
		t.Errorf("0.5 GB at 0.5 GB/s = %v", got)
	}
	c.Reset()
	d.Metadata(&c)
	d.Seek(&c)
	if got := c.Elapsed(); got != 1100*time.Microsecond {
		t.Errorf("metadata+seek = %v", got)
	}
	ops := c.Ops()
	if ops.Seeks != 1 || ops.MetadataOps != 1 {
		t.Errorf("ops = %+v", ops)
	}
}

func TestDeviceValidate(t *testing.T) {
	bad := Device{Name: "bad", ReadBW: 0, WriteBW: 1}
	if err := bad.Validate(); err == nil {
		t.Error("zero ReadBW accepted")
	}
	bad = Device{Name: "bad", ReadBW: 1, WriteBW: 1, SeekLatency: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative latency accepted")
	}
	for _, d := range []Device{NVMeSSD, SATAHDD, Ext4NVMe, XFSNVMe} {
		if err := d.Validate(); err != nil {
			t.Errorf("builtin device %s invalid: %v", d.Name, err)
		}
	}
}

func TestNetworkCosts(t *testing.T) {
	n := Network{Name: "test", RTT: time.Millisecond, Bandwidth: 1e9}
	var c Clock
	n.roundTrip(&c, 1e9)
	if got := c.Elapsed(); got != time.Second+time.Millisecond {
		t.Errorf("round trip = %v", got)
	}
	if c.Ops().NetRTTs != 1 || c.Ops().BytesSent != 1e9 {
		t.Errorf("ops = %+v", c.Ops())
	}
	c.Reset()
	n.transfer(&c, 2e9)
	if got := c.Elapsed(); got != 2*time.Second+time.Millisecond {
		t.Errorf("transfer = %v", got)
	}
}

func TestLocalEnv(t *testing.T) {
	env := NewLocalEnv(SingleNodeSSD())
	env.SeqRead(1_800_000_000)
	if got := env.Clock().Elapsed(); got < 990*time.Millisecond || got > 1010*time.Millisecond {
		t.Errorf("1.8 GB read on NVMe = %v, want ≈1 s", got)
	}
	env.Seek()
	env.Metadata()
	env.CPU(time.Millisecond)
	env.SeqWrite(1 << 20)
	env.RandRead(1 << 20)
	if env.Software().RecordParse == 0 {
		t.Error("Software not populated")
	}
	ops := env.Clock().Ops()
	if ops.Seeks != 2 || ops.MetadataOps != 1 {
		t.Errorf("ops = %+v", ops)
	}
}

func TestHDDSlowerThanSSDForRandom(t *testing.T) {
	ssd := NewLocalEnv(SingleNodeSSD())
	hdd := NewLocalEnv(SingleNodeHDD())
	for i := 0; i < 1000; i++ {
		ssd.RandRead(4096)
		hdd.RandRead(4096)
	}
	ratio := float64(hdd.Clock().Elapsed()) / float64(ssd.Clock().Elapsed())
	if ratio < 20 {
		t.Errorf("HDD/SSD random-read ratio = %.1f, expected heavy seek penalty", ratio)
	}
}

func TestXFSFasterSequentialWrite(t *testing.T) {
	ext4 := NewLocalEnv(SingleNodeSSD())
	xfs := NewLocalEnv(SingleNodeXFS())
	ext4.SeqWrite(4_000_000_000)
	xfs.SeqWrite(4_000_000_000)
	if xfs.Clock().Elapsed() >= ext4.Clock().Elapsed() {
		t.Error("XFS should out-write Ext4 in this calibration")
	}
}

// Property: costs are additive and monotone in byte count.
func TestCostMonotoneQuick(t *testing.T) {
	d := NVMeSSD
	f := func(a, b uint32) bool {
		var c1, c2, c12 Clock
		d.SeqRead(&c1, int64(a))
		d.SeqRead(&c2, int64(b))
		d.SeqRead(&c12, int64(a)+int64(b))
		sum := c1.Elapsed() + c2.Elapsed()
		diff := sum - c12.Elapsed()
		if diff < 0 {
			diff = -diff
		}
		return diff <= 2 // rounding tolerance in ns
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
