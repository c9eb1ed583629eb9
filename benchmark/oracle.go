package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/bagio"
	"repro/internal/rosbag"
	"repro/internal/workload"
)

// sum is what an op delivered, or what it should have: message count,
// payload bytes and a digest. The digest is the wrapping sum of the
// per-message FNV-1a hashes of (topic, time, payload), so it does not
// depend on delivery order; order is checked separately by collector.
// Measured rounds leave the digest 0 on both sides and compare counts
// and bytes only — hashing 25 MB inside a 34 ms op would measure FNV.
type sum struct {
	n      int64
	bytes  int64
	digest uint64
}

func msgHash(topic string, t bagio.Time, data []byte) uint64 {
	h := fnv.New64a()
	h.Write([]byte(topic))
	var tb [8]byte
	binary.LittleEndian.PutUint32(tb[:4], t.Sec)
	binary.LittleEndian.PutUint32(tb[4:], t.NSec)
	h.Write(tb[:])
	h.Write(data)
	return h.Sum64()
}

// rec is one source message as the oracle remembers it.
type rec struct {
	t    int64
	size uint32
	hash uint64
}

// oracle is the ground truth about a synthetic recording: every message
// the generator emitted, per topic in time order, with its size and
// hash. It is filled by running the generator a second time with the
// same options into the oracle itself (it is a workload.Sink), so it
// shares no code with the bag writer, the bag reader or BORA; the
// program under test only ever sees the generated .bag. Expected results
// of any (topics, window, stride) selection are computed from it alone.
type oracle struct {
	topics  []string         // in first-appearance order
	byTopic map[string][]rec // time-sorted
	total   sum
}

// AddConnection, WriteMessage and Seal implement workload.Sink.
func (o *oracle) AddConnection(topic, _ string) (uint32, error) {
	o.topics = append(o.topics, topic)
	return uint32(len(o.topics) - 1), nil
}

func (o *oracle) WriteMessage(conn uint32, t bagio.Time, data []byte) error {
	topic := o.topics[conn]
	h := msgHash(topic, t, data)
	o.byTopic[topic] = append(o.byTopic[topic], rec{t: t.Nanos(), size: uint32(len(data)), hash: h})
	o.total.n++
	o.total.bytes += int64(len(data))
	o.total.digest += h
	return nil
}

func (o *oracle) Seal() error { return nil }

// newOracle regenerates the recording synth wrote to bagPath and checks
// the bag's own index against it, topic by topic, so a bag that differs
// from what the generator emitted is caught before any workload runs.
func newOracle(bagPath string, d dataset, seed int64) (*oracle, error) {
	o := &oracle{byTopic: map[string][]rec{}}
	if _, err := workload.RecordHandheldSLAM(o, synthOptions(d, seed)); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	for _, rs := range o.byTopic {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].t < rs[j].t })
	}
	r, f, err := rosbag.Open(bagPath)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	defer f.Close()
	for _, t := range o.topics {
		if got, want := r.MessageCount(t), uint64(len(o.byTopic[t])); got != want {
			return nil, fmt.Errorf("oracle: %s indexes %d messages on %s, generator emitted %d", bagPath, got, t, want)
		}
	}
	if got := r.MessageCount(); got != uint64(o.total.n) {
		return nil, fmt.Errorf("oracle: %s indexes %d messages, generator emitted %d", bagPath, got, o.total.n)
	}
	return o, nil
}

// want is the expected sum of a query: the given topics (all when
// empty), times in [start, end] (end 0 = unbounded), every stride-th
// message of each topic counted from its first in-window one. digest
// selects whether the digest is filled in.
func (o *oracle) want(topics []string, start, end int64, stride int, digest bool) sum {
	if len(topics) == 0 {
		topics = o.topics
	}
	if stride < 1 {
		stride = 1
	}
	var s sum
	for _, t := range topics {
		rs := o.byTopic[t]
		lo := sort.Search(len(rs), func(i int) bool { return rs[i].t >= start })
		hi := len(rs)
		if end != 0 {
			hi = sort.Search(len(rs), func(i int) bool { return rs[i].t > end })
		}
		for i := lo; i < hi; i += stride {
			s.n++
			s.bytes += int64(rs[i].size)
			if digest {
				s.digest += rs[i].hash
			}
		}
	}
	return s
}

// Delivery orders a collector can check.
const (
	orderNone  = iota
	orderTopic // grouped by topic, each topic in time order
	orderTime  // global time order
)

// collector folds delivered messages into a sum. With verify set it
// also hashes every payload and checks the delivery order; without, it
// only counts, which is all a measured op can afford.
type collector struct {
	sum
	verify bool
	order  int
	bad    string // first order violation seen

	lastT     int64
	lastTopic string
	done      map[string]bool
}

func newCollector(verify bool, order int) *collector {
	c := &collector{verify: verify, order: order}
	if verify && order == orderTopic {
		c.done = map[string]bool{}
	}
	return c
}

func (c *collector) add(topic string, t bagio.Time, data []byte) {
	c.n++
	c.bytes += int64(len(data))
	if !c.verify {
		return
	}
	c.digest += msgHash(topic, t, data)
	ns := t.Nanos()
	switch c.order {
	case orderTopic:
		if topic != c.lastTopic {
			if c.done[topic] && c.bad == "" {
				c.bad = fmt.Sprintf("topic %s delivered in two runs", topic)
			}
			c.done[c.lastTopic] = true
			c.lastTopic, c.lastT = topic, ns
		}
		fallthrough
	case orderTime:
		if ns < c.lastT && c.bad == "" {
			c.bad = fmt.Sprintf("%s at %d delivered after %d", topic, ns, c.lastT)
		}
		c.lastT = ns
	}
}

// check compares what was collected with what the oracle wants and
// returns a description of the first difference, or "".
func (c *collector) check(want sum) string {
	if c.bad != "" {
		return "order: " + c.bad
	}
	return diff(c.sum, want)
}

func diff(got, want sum) string {
	switch {
	case got.n != want.n:
		return fmt.Sprintf("messages: got %d, want %d", got.n, want.n)
	case got.bytes != want.bytes:
		return fmt.Sprintf("bytes: got %d, want %d", got.bytes, want.bytes)
	case got.digest != want.digest:
		return fmt.Sprintf("digest: got %016x, want %016x", got.digest, want.digest)
	}
	return ""
}
