package dbsim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/msgs"
	"repro/internal/simio"
	"repro/internal/workload"
)

func engines() []Engine {
	return []Engine{
		NewFileAppend(simio.Ext4NVMe),
		NewKVStore(),
		NewSQLStore(),
		NewTSStore(),
	}
}

func TestAllEnginesIngest(t *testing.T) {
	stream := workload.TFStream(500, 1)
	for _, e := range engines() {
		for i := range stream {
			if err := e.Insert(uint32(i), &stream[i]); err != nil {
				t.Fatalf("%s: insert %d: %v", e.Name(), i, err)
			}
		}
		if e.Count() != 500 {
			t.Errorf("%s: Count = %d", e.Name(), e.Count())
		}
		if e.Elapsed() <= 0 {
			t.Errorf("%s: no cost accrued", e.Name())
		}
		if err := e.Insert(0, nil); err == nil {
			t.Errorf("%s: nil message accepted", e.Name())
		}
	}
}

// Fig 2 shape: Ext4 ≪ Aerospike < PostgreSQL ≪ InfluxDB, with ratios in
// the paper's magnitude bands (51.8x, 93.6x, 3,694.6x).
func TestFig2Shape(t *testing.T) {
	const n = 2000
	stream := workload.TFStream(n, 2)
	es := engines()
	for _, e := range es {
		for i := range stream {
			if err := e.Insert(uint32(i), &stream[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	ext4, kv, sql, ts := es[0].Elapsed(), es[1].Elapsed(), es[2].Elapsed(), es[3].Elapsed()
	rKV := float64(kv) / float64(ext4)
	rSQL := float64(sql) / float64(ext4)
	rTS := float64(ts) / float64(ext4)
	if rKV < 25 || rKV > 110 {
		t.Errorf("aerospike-like ratio = %.1fx, paper reports 51.8x", rKV)
	}
	if rSQL < 50 || rSQL > 200 {
		t.Errorf("postgresql-like ratio = %.1fx, paper reports 93.6x", rSQL)
	}
	if rTS < 1500 || rTS > 8000 {
		t.Errorf("influxdb-like ratio = %.0fx, paper reports 3,694.6x", rTS)
	}
	if !(ext4 < kv && kv < sql && sql < ts) {
		t.Errorf("ordering violated: ext4=%v kv=%v sql=%v ts=%v", ext4, kv, sql, ts)
	}
}

func TestFileAppendAccumulates(t *testing.T) {
	e := NewFileAppend(simio.Ext4NVMe)
	stream := workload.TFStream(10, 3)
	for i := range stream {
		if err := e.Insert(uint32(i), &stream[i]); err != nil {
			t.Fatal(err)
		}
	}
	if e.Bytes() <= 0 {
		t.Error("log empty after appends")
	}
}

func TestKVStoreReadBack(t *testing.T) {
	e := NewKVStore()
	stream := workload.TFStream(50, 4)
	for i := range stream {
		if err := e.Insert(uint32(i), &stream[i]); err != nil {
			t.Fatal(err)
		}
	}
	m, ok, err := e.Get(25)
	if err != nil || !ok {
		t.Fatalf("Get(25): ok=%v err=%v", ok, err)
	}
	if m.Transforms[0].Header.Seq != 25 {
		t.Errorf("wrong record: seq %d", m.Transforms[0].Header.Seq)
	}
	if _, ok, _ := e.Get(9999); ok {
		t.Error("missing key found")
	}
	if err := e.Insert(25, &stream[25]); err == nil {
		t.Error("duplicate key accepted")
	}
	if e.walLen <= 0 {
		t.Error("WAL empty")
	}
}

func TestSQLStoreReadBackAndScan(t *testing.T) {
	e := NewSQLStore()
	stream := workload.TFStream(300, 5)
	// Insert in random order; scan must return key order.
	perm := rand.New(rand.NewSource(1)).Perm(len(stream))
	for _, i := range perm {
		if err := e.Insert(uint32(i), &stream[i]); err != nil {
			t.Fatal(err)
		}
	}
	m, ok, err := e.Get(123)
	if err != nil || !ok || m.Transforms[0].Header.Seq != 123 {
		t.Fatalf("Get(123) = %v, %v, %v", m, ok, err)
	}
	var seqs []uint32
	if err := e.Scan(func(seq uint32, m *msgs.TFMessage) bool {
		seqs = append(seqs, seq)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 300 {
		t.Fatalf("scan returned %d rows", len(seqs))
	}
	if !sort.SliceIsSorted(seqs, func(i, j int) bool { return seqs[i] < seqs[j] }) {
		t.Error("scan not in key order")
	}
	if e.index.depth < 2 {
		t.Errorf("300 rows should split the root (depth %d)", e.index.depth)
	}
	if err := e.Insert(123, &stream[123]); err == nil {
		t.Error("duplicate primary key accepted")
	}
}

func TestTSStoreFlattening(t *testing.T) {
	e := NewTSStore()
	stream := workload.TFStream(20, 6)
	for i := range stream {
		if err := e.Insert(uint32(i), &stream[i]); err != nil {
			t.Fatal(err)
		}
	}
	if e.Points() != 20*7 {
		t.Errorf("Points = %d, want 140 (7 scalars per transform)", e.Points())
	}
	if len(e.seriesNames()) != 7 {
		t.Errorf("Series = %v", e.seriesNames())
	}
	start := stream[0].Transforms[0].Header.Stamp.Nanos()
	end := stream[19].Transforms[0].Header.Stamp.Nanos()
	vals, err := e.rangeValues("tf.translation.x", start, end)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 20 {
		t.Errorf("Range returned %d values", len(vals))
	}
	if _, err := e.rangeValues("nope", 0, 1); err == nil {
		t.Error("unknown series accepted")
	}
}

// Property: the B-tree agrees with a map under random insert/get mixes.
func TestBTreeAgainstMapQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bt := newBTree()
		model := map[uint64][]byte{}
		for i := 0; i < 500; i++ {
			k := uint64(rng.Intn(200))
			v := []byte{byte(rng.Intn(256))}
			_, fresh := bt.insert(k, v)
			_, existed := model[k]
			if fresh == existed {
				return false // fresh must be !existed
			}
			model[k] = v
		}
		if bt.size != len(model) {
			return false
		}
		for k, v := range model {
			got, _, ok := bt.get(k)
			if !ok || got[0] != v[0] {
				return false
			}
		}
		if _, _, ok := bt.get(99999); ok {
			return false
		}
		// Ascend yields sorted keys.
		var keys []uint64
		bt.ascend(func(k uint64, _ []byte) bool { keys = append(keys, k); return true })
		if len(keys) != len(model) {
			return false
		}
		return sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBTreeLargeSequential(t *testing.T) {
	bt := newBTree()
	const n = 20000
	for i := 0; i < n; i++ {
		bt.insert(uint64(i), []byte{1})
	}
	if bt.size != n {
		t.Fatalf("size = %d", bt.size)
	}
	if bt.depth < 3 {
		t.Errorf("depth = %d, expected a deeper tree at %d keys", bt.depth, n)
	}
	for _, k := range []uint64{0, n / 2, n - 1} {
		if _, _, ok := bt.get(k); !ok {
			t.Errorf("key %d missing", k)
		}
	}
}

func TestBTreeAscendEarlyStop(t *testing.T) {
	bt := newBTree()
	for i := 0; i < 100; i++ {
		bt.insert(uint64(i), nil)
	}
	count := 0
	bt.ascend(func(uint64, []byte) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("early stop visited %d keys", count)
	}
}
