package obs

import (
	"bytes"
	"encoding/json"
	"math/bits"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Errorf("Load = %d, want 5", got)
	}
	if r.Counter("x") != c {
		t.Error("Counter is not idempotent per name")
	}
	if r.Counter("y") == c {
		t.Error("distinct names share a counter")
	}
}

func TestOpObserve(t *testing.T) {
	r := NewRegistry()
	op := r.Op("core.read")
	op.Observe(3*time.Microsecond, 100)
	op.Observe(5*time.Microsecond, 200)
	op.Observe(0, 0)
	s := r.Snapshot().Ops["core.read"]
	if s.Count != 3 {
		t.Errorf("Count = %d", s.Count)
	}
	if s.Bytes != 300 {
		t.Errorf("Bytes = %d", s.Bytes)
	}
	if s.TotalNs != 8000 {
		t.Errorf("TotalNs = %d", s.TotalNs)
	}
	if s.MinNs != 0 || s.MaxNs != 5000 {
		t.Errorf("Min/Max = %d/%d", s.MinNs, s.MaxNs)
	}
	if s.Timed() != 3 {
		t.Errorf("Timed = %d", s.Timed())
	}
	if got, want := s.Mean(), time.Duration(8000/3); got != want {
		t.Errorf("Mean = %v, want %v", got, want)
	}
}

func TestOpBuckets(t *testing.T) {
	r := NewRegistry()
	op := r.Op("o")
	// 1500ns has bit length 11 -> bucket [1024, 2048).
	op.Observe(1500*time.Nanosecond, 0)
	op.Observe(1024*time.Nanosecond, 0)
	op.Observe(2048*time.Nanosecond, 0)
	s := r.Snapshot().Ops["o"]
	want := map[int64]int64{1024: 2, 2048: 1}
	if len(s.Buckets) != 2 {
		t.Fatalf("Buckets = %+v", s.Buckets)
	}
	for _, b := range s.Buckets {
		if want[b.LowNs] != b.Count {
			t.Errorf("bucket %d has %d events, want %d", b.LowNs, b.Count, want[b.LowNs])
		}
	}
}

func TestBucketLowMatchesBitLen(t *testing.T) {
	for _, ns := range []int64{0, 1, 2, 3, 1023, 1024, 1 << 40} {
		i := bits.Len64(uint64(ns))
		low := BucketLow(i)
		if ns < low || (ns > 0 && ns >= 2*low) {
			t.Errorf("ns %d fell in bucket [%d, %d)", ns, low, 2*low)
		}
	}
}

func TestSpan(t *testing.T) {
	r := NewRegistry()
	sp := r.Start("op")
	time.Sleep(time.Millisecond)
	sp.EndBytes(42)
	r.Start("op").EndErr(nil)
	r.Start("op").EndErr(bytes.ErrTooLarge)
	s := r.Snapshot().Ops["op"]
	if s.Count != 3 || s.Errors != 1 || s.Bytes != 42 {
		t.Errorf("snapshot = %+v", s)
	}
	if s.MaxNs < int64(time.Millisecond) {
		t.Errorf("MaxNs = %d, want >= 1ms", s.MaxNs)
	}
}

func TestOpAddUntimed(t *testing.T) {
	r := NewRegistry()
	op := r.Op("container.read")
	op.Add(10, 4096)
	op.Observe(time.Microsecond, 0)
	s := r.Snapshot().Ops["container.read"]
	if s.Count != 11 || s.Bytes != 4096 {
		t.Errorf("snapshot = %+v", s)
	}
	if s.Timed() != 1 {
		t.Errorf("Timed = %d, want 1", s.Timed())
	}
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Counter("c").Add(3)
	if r.Counter("c").Load() != 0 {
		t.Error("nil counter loaded non-zero")
	}
	r.Op("o").Observe(time.Second, 1)
	r.Op("o").Add(1, 1)
	sp := r.Start("o")
	sp.End()
	sp.EndBytes(5)
	sp.EndErr(bytes.ErrTooLarge)
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Ops) != 0 {
		t.Errorf("nil registry snapshot = %+v", snap)
	}
}

func TestZeroSpanIsNoop(t *testing.T) {
	var sp Span
	sp.End() // must not panic
}

func TestSnapshotEncodings(t *testing.T) {
	r := NewRegistry()
	r.Counter("cluster.failover").Add(2)
	op := r.Op("core.duplicate")
	op.Observe(2*time.Millisecond, 1<<20)
	data, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if decoded.Counters["cluster.failover"] != 2 {
		t.Errorf("decoded counters = %+v", decoded.Counters)
	}
	if decoded.Ops["core.duplicate"].Bytes != 1<<20 {
		t.Errorf("decoded ops = %+v", decoded.Ops)
	}

	var buf bytes.Buffer
	if err := r.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"core.duplicate", "bytes 1048576", "cluster.failover"} {
		if !strings.Contains(text, want) {
			t.Errorf("text snapshot missing %q:\n%s", want, text)
		}
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op := r.Op("hot")
			c := r.Counter("events")
			for i := 0; i < perG; i++ {
				op.Observe(time.Duration(i)*time.Nanosecond, 1)
				c.Inc()
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if got := snap.Counters["events"]; got != goroutines*perG {
		t.Errorf("events = %d, want %d", got, goroutines*perG)
	}
	o := snap.Ops["hot"]
	if o.Count != goroutines*perG || o.Bytes != goroutines*perG {
		t.Errorf("op snapshot = %+v", o)
	}
	if o.Timed() != o.Count {
		t.Errorf("histogram total %d != count %d", o.Timed(), o.Count)
	}
	if o.MinNs != 0 || o.MaxNs != perG-1 {
		t.Errorf("Min/Max = %d/%d", o.MinNs, o.MaxNs)
	}
}

func BenchmarkSpan(b *testing.B) {
	r := NewRegistry()
	op := r.Op("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op.Start().EndBytes(128)
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	var r *Registry
	op := r.Op("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op.Start().EndBytes(128)
	}
}

func BenchmarkCounter(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}
