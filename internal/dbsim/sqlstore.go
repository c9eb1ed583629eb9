package dbsim

import (
	"fmt"
	"time"

	"repro/internal/msgs"
)

// SQLStore is the PostgreSQL-like engine: every message becomes an
// INSERT that is parsed and planned, lands as a heap tuple, updates a
// B-tree primary-key index, and writes a WAL record with group commit.
// The per-statement parse/plan plus tuple bookkeeping is why it trails
// the NoSQL store in Fig 2.
type SQLStore struct {
	clockEngine
	index  *btree
	walLen int64
}

// NewSQLStore creates the relational engine.
func NewSQLStore() *SQLStore {
	return &SQLStore{index: newBTree()}
}

// Name implements Engine.
func (e *SQLStore) Name() string { return "postgresql-like-sql" }

// Insert implements Engine.
func (e *SQLStore) Insert(seq uint32, m *msgs.TFMessage) error {
	if m == nil {
		return fmt.Errorf("dbsim: nil message")
	}
	wire := m.Marshal(nil)
	visited, fresh := e.index.insert(key(seq), wire)
	if !fresh {
		return fmt.Errorf("dbsim: duplicate primary key for seq %d", seq)
	}
	e.walLen += int64(len(wire)) + 40

	e.clock.Advance(serializeCost)
	e.clock.Advance(loopbackRTT)
	e.clock.Advance(sqlParseCost)
	e.clock.Advance(tupleOverhead)
	e.clock.Advance(time.Duration(visited) * btreeNodeVisit)
	e.clock.Advance(walAppend)
	e.count++
	if e.count%fsyncEvery == 0 {
		e.clock.Advance(walFsync)
	}
	return nil
}

// Get reads a row back by sequence number.
func (e *SQLStore) Get(seq uint32) (*msgs.TFMessage, bool, error) {
	wire, _, ok := e.index.get(key(seq))
	if !ok {
		return nil, false, nil
	}
	var m msgs.TFMessage
	if err := m.Unmarshal(wire); err != nil {
		return nil, true, err
	}
	return &m, true, nil
}

// Scan visits all rows in key order.
func (e *SQLStore) Scan(fn func(seq uint32, m *msgs.TFMessage) bool) error {
	var scanErr error
	e.index.ascend(func(k uint64, wire []byte) bool {
		var m msgs.TFMessage
		if err := m.Unmarshal(wire); err != nil {
			scanErr = err
			return false
		}
		return fn(uint32(k>>16), &m)
	})
	return scanErr
}
