package container

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/bagio"
	"repro/internal/faultfs"
)

// The container meta is its manifest: a sequence of bagio headers, each
// framed by its length (u32le) — the container's own (signature and
// version, state, generation, derivation), then one per topic (its
// directory, every bagio.Connection field, its time-index window and,
// once sealed, its data file's crc32c and length). A building manifest
// is appended to in place, so a crash can cut at most its last header
// short; the seal replaces it atomically with the sealed one.
const (
	metaSignature = "bora-container v3"

	// StateBuilding marks a container whose organize pass has not
	// committed; StateSealed marks a complete, openable container.
	StateBuilding = "building"
	StateSealed   = "sealed"
)

// ErrUnsealed reports an open of a container whose duplicate never
// committed (crashed or still in flight).
var ErrUnsealed = errors.New("container: not sealed (crashed or in-progress duplicate; run fsck/repair)")

// ErrLegacyMeta refuses a container whose meta is the text file of an
// older build (v1 or v2, striped or not), which this build neither reads
// nor migrates: fsck's bad-meta, left alone by Repair. Test with
// errors.Is.
var ErrLegacyMeta = errors.New("container: meta written by an older build (text format) is not supported")

// legacyMetaPrefix opens every text meta an older build wrote.
const legacyMetaPrefix = "bora-container v"

// Meta is the parsed container manifest.
type Meta struct {
	State string
	// Gen is the container's generation: it starts at 0 while building
	// and is bumped by every Seal (first duplicate, Repair reseal,
	// re-Duplicate after Remove lands back at 1). Handle caches compare
	// it against the meta on disk to detect that a cached open went
	// stale without re-walking the tree.
	Gen uint64
	// Derivation is the content address of the build derivation that
	// materialized this container (empty for containers that are not
	// build outputs). internal/build stamps it after Seal and compares
	// it on later builds: a matching address makes the rebuild a no-op.
	Derivation string

	topics []topicMeta // in manifest order; CommitFS sorts them by dir
	torn   bool        // a building manifest whose last topic header a crash cut short
}

// topicMeta is one topic's header of the manifest.
type topicMeta struct {
	dir    string
	conn   *bagio.Connection
	window time.Duration // the coarse time-index window
	summed bool          // sum and size are recorded: sealed manifests only
	sum    uint32        // crc32c of the data file
	size   int64         // the data file's length
}

// Sealed reports whether the container committed.
func (m *Meta) Sealed() bool { return m.State == StateSealed }

// encodeHead renders the container's own header.
func encodeHead(m *Meta) []byte {
	h := bagio.Header{}
	h.PutString("signature", metaSignature)
	h.PutString("state", m.State)
	h.PutU64("gen", m.Gen)
	if m.Derivation != "" {
		h.PutString("deriv", m.Derivation)
	}
	return frame(h)
}

// encodeTopic renders one topic's header; a connection's optional fields
// add no bytes when unset.
func encodeTopic(tm topicMeta) []byte {
	h := bagio.Header{}
	h.PutU32("conn", tm.conn.ID)
	h.PutString("topic", tm.conn.Topic)
	h.PutString("type", tm.conn.Type)
	h.PutString("md5sum", tm.conn.MD5Sum)
	h.PutString("message_definition", tm.conn.Def)
	if tm.conn.Caller != "" {
		h.PutString("callerid", tm.conn.Caller)
	}
	if tm.conn.Latch {
		h.PutString("latching", "1")
	}
	h.PutString("dir", tm.dir)
	h.PutU64("window", uint64(tm.window))
	if tm.summed {
		h.PutU32("crc", tm.sum)
		h.PutU64("size", uint64(tm.size))
	}
	return frame(h)
}

// frame prefixes h's encoding with its length.
func frame(h bagio.Header) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(h.EncodedLen())), h.Encode()...)
}

// nextHeader splits the first framed header off b and decodes it.
func nextHeader(b []byte) (h bagio.Header, raw, rest []byte, err error) {
	if len(b) < 4 || uint64(binary.LittleEndian.Uint32(b)) > uint64(len(b)-4) {
		return nil, nil, nil, fmt.Errorf("header cut short at %d bytes", len(b))
	}
	raw, rest = b[4:4+binary.LittleEndian.Uint32(b)], b[4+binary.LittleEndian.Uint32(b):]
	h, err = bagio.DecodeHeader(raw)
	return h, raw, rest, err
}

// encodeMeta renders m as a whole manifest.
func encodeMeta(m *Meta) []byte {
	buf := encodeHead(m)
	for _, tm := range m.topics {
		buf = append(buf, encodeTopic(tm)...)
	}
	return buf
}

// buildingHead is the header CreateFS writes: a meta file that is a
// strict prefix of it was torn by a crash.
var buildingHead = encodeHead(&Meta{State: StateBuilding})

// decodeHead parses the container header at the front of buf.
func decodeHead(buf []byte) (*Meta, []byte, error) {
	if bytes.HasPrefix(buf, []byte(legacyMetaPrefix)) {
		return nil, nil, ErrLegacyMeta
	}
	m := &Meta{}
	h, _, rest, err := nextHeader(buf)
	if err == nil {
		m.Gen, err = h.U64("gen")
	}
	if err != nil {
		return nil, nil, fmt.Errorf("container header: %w", err)
	}
	m.State, m.Derivation = string(h["state"]), string(h["deriv"])
	if sig := string(h["signature"]); sig != metaSignature || m.State != StateBuilding && m.State != StateSealed {
		return nil, nil, fmt.Errorf("container header: signature %q, state %q", sig, m.State)
	}
	return m, rest, nil
}

// decodeTopic parses one topic header; raw, its encoding, carries the
// connection's fields as a connection record's data does.
func decodeTopic(h bagio.Header, raw []byte) (tm topicMeta, err error) {
	w, err := h.U64("window")
	if err == nil {
		tm.conn, err = bagio.DecodeConnection(&bagio.Record{Header: h, Data: raw})
	}
	if _, tm.summed = h["crc"]; err == nil && tm.summed {
		var size uint64
		if tm.sum, err = h.U32("crc"); err == nil {
			size, err = h.U64("size")
		}
		tm.size = int64(size)
	}
	if tm.dir, tm.window = string(h["dir"]), time.Duration(w); err == nil && tm.dir != EncodeTopicDir(tm.conn.Topic) {
		err = fmt.Errorf("topic %q in dir %q", tm.conn.Topic, tm.dir)
	}
	return tm, err
}

// decodeMeta parses a whole manifest. A building manifest whose last
// topic header is cut short — a crash mid-append — parses up to it and
// says so (torn); any other damage is an error.
func decodeMeta(buf []byte) (*Meta, error) {
	m, rest, err := decodeHead(buf)
	if err != nil {
		return nil, err
	}
	for len(rest) > 0 {
		h, raw, next, err := nextHeader(rest)
		var tm topicMeta
		if err == nil {
			tm, err = decodeTopic(h, raw)
		}
		if m.torn = err != nil && m.State == StateBuilding && len(next) == 0; m.torn {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("topic header %d: %w", len(m.topics), err)
		}
		m.topics, rest = append(m.topics, tm), next
	}
	return m, nil
}

// ReadMeta parses the manifest of the container rooted at root.
func ReadMeta(root string) (*Meta, error) {
	buf, err := os.ReadFile(filepath.Join(root, MetaFileName))
	if err != nil {
		return nil, err
	}
	m, err := decodeMeta(buf)
	if err != nil {
		return nil, fmt.Errorf("container: meta of %s: %w", root, err)
	}
	return m, nil
}

// headReadSize holds any container header this package writes.
const headReadSize = 512

// ReadMetaHead parses only the container header of root's manifest,
// from one read of its first bytes: the cost of the pool's staleness
// probe and of List does not grow with the topics' definitions.
func ReadMetaHead(root string) (*Meta, error) {
	path := filepath.Join(root, MetaFileName)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var head [headReadSize]byte
	n, err := io.ReadFull(f, head[:])
	f.Close()
	buf := head[:n]
	if err == nil && binary.LittleEndian.Uint32(buf) > headReadSize-4 {
		buf, err = os.ReadFile(path) // a header longer than the read
	} else if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = nil // a manifest shorter than the read
	}
	if err != nil {
		return nil, err
	}
	m, _, err := decodeHead(buf)
	if err != nil {
		return nil, fmt.Errorf("container: meta of %s: %w", root, err)
	}
	return m, nil
}

// writeMeta replaces the manifest atomically (temp file + rename): a
// crash leaves the previous one, never a torn one.
func writeMeta(fs faultfs.Backend, root string, m *Meta) error {
	if err := faultfs.WriteFileAtomic(fs, filepath.Join(root, MetaFileName), encodeMeta(m), 0o644); err != nil {
		return fmt.Errorf("container: write meta: %w", err)
	}
	return nil
}

// WriteBuildingMeta writes m's topics, without checksums, as the
// building manifest of a container at root, in place and unsynced: a
// copy writes it before its first topic file, so an interrupted copy is
// a building container Repair completes.
func WriteBuildingMeta(fs faultfs.Backend, root string, m *Meta) error {
	fs = faultfs.Or(fs)
	b := &Meta{State: StateBuilding}
	for _, tm := range m.topics {
		tm.summed = false
		b.topics = append(b.topics, tm)
	}
	f, err := fs.Create(filepath.Join(root, MetaFileName))
	if err == nil {
		_, err = f.Write(encodeMeta(b))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// genCounter disambiguates seals that land on the same clock reading.
var genCounter atomic.Uint64

// NewGen mints a fresh generation token outside a container Seal — the
// live-bag layer stamps one into its own meta when a recording
// completes, so handle caches compare live and classic bags the same
// way.
func NewGen() uint64 { return newGen() }

// newGen mints a generation token for a seal. A plain per-container
// counter would collide after Remove + re-Duplicate (the counter state
// dies with the directory and restarts at 1), so the token combines the
// wall clock with a process-unique counter: no two seals — of the same
// path or across rebuilds of it — ever carry the same value, which is
// what handle caches compare to detect staleness.
func newGen() uint64 {
	return uint64(time.Now().UnixNano())<<10 | (genCounter.Add(1) & 0x3ff)
}

// StampDerivation records a build derivation's content address in the
// sealed manifest of the container rooted at root, preserving the
// generation and the topics. The address must be a single line. A crash
// between Seal and the stamp leaves a sealed container without an
// address, which a later build treats as a cache miss and rebuilds —
// safe, just not cached.
func StampDerivation(fs faultfs.Backend, root, addr string) error {
	if strings.ContainsAny(addr, "\n\r") {
		return fmt.Errorf("container: derivation address %q spans lines", addr)
	}
	m, err := ReadMeta(root)
	if err != nil {
		return err
	}
	if !m.Sealed() {
		return fmt.Errorf("container: %s: stamp derivation on unsealed container", root)
	}
	m.Derivation = addr
	return writeMeta(faultfs.Or(fs), root, m)
}

// Derivation returns the build content address stamped on the
// container (empty when it is not a build output).
func (c *Container) Derivation() string {
	if c.meta == nil {
		return ""
	}
	return c.meta.Derivation
}

// Seal commits the container: the manifest flips to sealed, mints a
// fresh generation, and records every topic's checksum (CommitFS).
// Until Seal succeeds the container cannot be opened or listed.
func (c *Container) Seal() error { return c.IssueSeal()() }

// IssueSeal is Seal in the two steps of CommitFS: it closes the
// building manifest, issues the barrier and returns the finish. The
// files must not change in between.
func (c *Container) IssueSeal() (finish func() error) {
	if err := cmp.Or(c.err, c.Abandon()); err != nil { // a sticky error first
		return func() error { return err }
	}
	m := &Meta{State: StateSealed, Gen: newGen()}
	for _, t := range c.topics {
		m.topics = append(m.topics, t.meta)
	}
	commit := CommitFS(c.fs, c.root, m)
	return func() error {
		if err := commit(); err != nil {
			return err
		}
		c.meta = m
		return nil
	}
}

// Abandon closes the building manifest, held open from CreateFS for
// the topics' headers, for a build that fails before its seal: the
// container stays building, for Repair to complete.
func (c *Container) Abandon() error {
	if c.metaf == nil {
		return nil
	}
	err := c.metaf.Close()
	c.metaf = nil
	return err
}

// CommitFS is the second phase of a container's group commit; the first
// wrote every file of the tree at root in place, with no sync. One
// barrier (SyncAll) makes durable the building manifest, the data and
// index of every topic m names, their directories, root and root's
// parent. Only then does the sealed manifest m replace the building one
// by rename, the commit point, and a sync of root makes the rename
// durable. A crash before the rename leaves a building container.
//
// CommitFS issues the barrier and returns the finish: the barrier's
// wait, the rename and the sync of root, and the first error of either
// step. Seal, Repair's reseal and a copied container run the finish at
// once; a live recording runs it at its next rotation or seal.
func CommitFS(fs faultfs.Backend, root string, m *Meta) (finish func() error) {
	fs = faultfs.Or(fs)
	slices.SortFunc(m.topics, func(a, b topicMeta) int { return strings.Compare(a.dir, b.dir) })
	paths := make([]string, 0, 3*len(m.topics)+3)
	for _, tm := range m.topics {
		dir := filepath.Join(root, tm.dir)
		paths = append(paths, filepath.Join(dir, DataFileName), filepath.Join(dir, IndexFileName), dir)
	}
	paths = append(paths, filepath.Join(root, MetaFileName), root, filepath.Dir(root))
	wait := fs.SyncAll(paths)
	return func() error {
		if err := wait(); err != nil {
			return fmt.Errorf("container: commit: %w", err)
		}
		if err := writeMeta(fs, root, m); err != nil {
			return err
		}
		if err := fs.SyncDir(root); err != nil {
			return fmt.Errorf("container: commit: %w", err)
		}
		return nil
	}
}
