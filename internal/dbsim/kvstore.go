package dbsim

import (
	"fmt"

	"repro/internal/msgs"
)

// KVStore is the Aerospike-like engine: an in-memory hash-table record
// store behind a client/server round trip, with a write-ahead log and
// group-commit fsync. Its ingest cost is dominated by the per-operation
// network exchange — the structural reason "a DBMS can hardly collect
// continuous large volumes of data in real-time".
type KVStore struct {
	clockEngine
	records map[uint64][]byte
	walLen  int64
}

// NewKVStore creates the NoSQL engine.
func NewKVStore() *KVStore {
	return &KVStore{records: map[uint64][]byte{}}
}

// Name implements Engine.
func (e *KVStore) Name() string { return "aerospike-like-kv" }

// key derives the record key from the stream sequence.
func key(seq uint32) uint64 { return uint64(seq)<<16 | 0xb0ba }

// Insert implements Engine.
func (e *KVStore) Insert(seq uint32, m *msgs.TFMessage) error {
	if m == nil {
		return fmt.Errorf("dbsim: nil message")
	}
	wire := m.Marshal(nil)
	k := key(seq)
	if _, dup := e.records[k]; dup {
		return fmt.Errorf("dbsim: duplicate key %d", k)
	}
	e.records[k] = wire
	e.walLen += int64(len(wire)) + 16

	e.clock.Advance(serializeCost)
	e.clock.Advance(loopbackRTT)
	e.clock.Advance(walAppend)
	e.count++
	if e.count%fsyncEvery == 0 {
		e.clock.Advance(walFsync)
	}
	return nil
}

// Get reads a record back by sequence number.
func (e *KVStore) Get(seq uint32) (*msgs.TFMessage, bool, error) {
	wire, ok := e.records[key(seq)]
	if !ok {
		return nil, false, nil
	}
	var m msgs.TFMessage
	if err := m.Unmarshal(wire); err != nil {
		return nil, true, err
	}
	return &m, true, nil
}
