package core

import "fmt"

// Rebag materializes the subset of bag selected by spec as a new
// logical bag on the same back end — the paper's rebagging operation,
// performed container-to-container so the result is already
// BORA-organized (no intermediate bag file, no re-duplication). Any
// selection works: per-topic message order is preserved regardless of
// the delivery order queried.
func (b *BORA) Rebag(bag *Bag, newName string, spec QuerySpec) (*Bag, int64, error) {
	if bag == nil {
		return nil, 0, fmt.Errorf("bora: nil source bag")
	}
	rec, err := b.CreateBag(newName)
	if err != nil {
		return nil, 0, err
	}
	// The recorder serializes writes itself and registers each topic with
	// the source connection's full metadata, whatever its type.
	err = bag.Query(spec, func(m MessageRef) error {
		return rec.writeConn(m.Conn, m.Time, m.Data)
	})
	kept := rec.MessageCount()
	if err != nil {
		return nil, kept, fmt.Errorf("bora: rebag: %w", err)
	}
	out, err := rec.Close()
	if err != nil {
		return nil, kept, err
	}
	return out, kept, nil
}
