// Package tagman implements BORA's tag manager: a hash table mapping
// topic names (the data labels) to their back-end paths on the
// underlying file system. Per the paper (Table I), the table is not
// persisted — it is rebuilt on the fly every time a bag is opened,
// because construction cost is negligible up to at least 100,000 topics.
//
// The table is a from-scratch open-addressing hash map (FNV-1a hashing,
// linear probing, power-of-two capacity) rather than a Go map so that its
// memory footprint — the "Hash Table Size" column of Table I — is a
// well-defined quantity the harness can report.
package tagman

import (
	"encoding/binary"
	"fmt"
	"sort"
)

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	maxLoad     = 0.7
	minCapacity = 8
)

func fnv1a(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

type slot struct {
	hash uint64
	key  string
	val  string
	used bool
}

// Table maps topic names to back-end paths.
type Table struct {
	slots []slot
	n     int
}

// New creates a table pre-sized for the given number of topics.
func New(sizeHint int) *Table {
	cap := minCapacity
	for float64(sizeHint) > maxLoad*float64(cap) {
		cap *= 2
	}
	return &Table{slots: make([]slot, cap)}
}

// Len returns the number of entries.
func (t *Table) Len() int { return t.n }

// Put inserts or replaces the path for a topic.
func (t *Table) Put(topic, path string) {
	if float64(t.n+1) > maxLoad*float64(len(t.slots)) {
		t.grow()
	}
	h := fnv1a(topic)
	i := h & uint64(len(t.slots)-1)
	for {
		s := &t.slots[i]
		if !s.used {
			*s = slot{hash: h, key: topic, val: path, used: true}
			t.n++
			return
		}
		if s.hash == h && s.key == topic {
			s.val = path
			return
		}
		i = (i + 1) & uint64(len(t.slots)-1)
	}
}

// Get looks up the back-end path of a topic.
func (t *Table) Get(topic string) (string, bool) {
	h := fnv1a(topic)
	i := h & uint64(len(t.slots)-1)
	for {
		s := &t.slots[i]
		if !s.used {
			return "", false
		}
		if s.hash == h && s.key == topic {
			return s.val, true
		}
		i = (i + 1) & uint64(len(t.slots)-1)
	}
}

func (t *Table) grow() {
	old := t.slots
	t.slots = make([]slot, len(old)*2)
	t.n = 0
	for _, s := range old {
		if s.used {
			t.Put(s.key, s.val)
		}
	}
}

// Topics returns the sorted topic names in the table.
func (t *Table) Topics() []string {
	out := make([]string, 0, t.n)
	for _, s := range t.slots {
		if s.used {
			out = append(out, s.key)
		}
	}
	sort.Strings(out)
	return out
}

// SizeBytes estimates the table's memory footprint: slot array overhead
// plus string payloads. This is the "Hash Table Size" quantity of
// Table I.
func (t *Table) SizeBytes() int {
	// A slot is hash (8) + two string headers (16 each) + bool padded (8).
	const slotOverhead = 8 + 16 + 16 + 8
	size := len(t.slots) * slotOverhead
	for _, s := range t.slots {
		if s.used {
			size += len(s.key) + len(s.val)
		}
	}
	return size
}

// Build constructs a table from a topic→path mapping; this is the
// "build it whenever a bag is opened" step of the paper.
func Build(paths map[string]string) *Table {
	t := New(len(paths))
	for topic, path := range paths {
		t.Put(topic, path)
	}
	return t
}

// Lookup resolves every requested topic, failing fast on the first
// unknown one. This implements step 2 of Fig 7: topic names in, back-end
// paths out.
func (t *Table) Lookup(topics []string) ([]string, error) {
	out := make([]string, len(topics))
	for i, topic := range topics {
		p, ok := t.Get(topic)
		if !ok {
			return nil, fmt.Errorf("tagman: unknown topic %q", topic)
		}
		out[i] = p
	}
	return out, nil
}

// Marshal serializes the table as length-prefixed key/value pairs so the
// "read the hash table" alternative of Table I can be measured against
// the on-the-fly build. (BORA itself never persists the table — the
// paper's measurement justifies that choice.)
func (t *Table) Marshal() []byte {
	buf := make([]byte, 0, t.SizeBytes())
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(t.n))
	buf = append(buf, b4[:]...)
	for _, s := range t.slots {
		if !s.used {
			continue
		}
		binary.LittleEndian.PutUint32(b4[:], uint32(len(s.key)))
		buf = append(buf, b4[:]...)
		buf = append(buf, s.key...)
		binary.LittleEndian.PutUint32(b4[:], uint32(len(s.val)))
		buf = append(buf, b4[:]...)
		buf = append(buf, s.val...)
	}
	return buf
}

// Unmarshal reconstructs a table from Marshal's output.
func Unmarshal(buf []byte) (*Table, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("tagman: truncated header")
	}
	n := binary.LittleEndian.Uint32(buf[:4])
	buf = buf[4:]
	t := New(int(n))
	readStr := func() (string, error) {
		if len(buf) < 4 {
			return "", fmt.Errorf("tagman: truncated length")
		}
		l := binary.LittleEndian.Uint32(buf[:4])
		buf = buf[4:]
		if uint32(len(buf)) < l {
			return "", fmt.Errorf("tagman: truncated string of %d bytes", l)
		}
		s := string(buf[:l])
		buf = buf[l:]
		return s, nil
	}
	for i := uint32(0); i < n; i++ {
		k, err := readStr()
		if err != nil {
			return nil, err
		}
		v, err := readStr()
		if err != nil {
			return nil, err
		}
		t.Put(k, v)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("tagman: %d trailing bytes", len(buf))
	}
	if t.Len() != int(n) {
		return nil, fmt.Errorf("tagman: %d entries decoded, header says %d", t.Len(), n)
	}
	return t, nil
}
