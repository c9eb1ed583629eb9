package container

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
)

// Container meta lifecycle. A v2 container is created in state
// "building" and atomically flipped to "sealed" once every topic's
// data, index, time index and checksum are durable; the sealed meta
// also records the topic directory list, giving fsck a manifest to
// check the tree against. A crash mid-organize therefore leaves a
// building-state meta behind: the container is invisible to Open/List
// (never served half-written) but identifiable and repairable.
const (
	metaMagic = "bora-container v2"

	// StateBuilding marks a container whose organize pass has not
	// committed; StateSealed marks a complete, openable container.
	StateBuilding = "building"
	StateSealed   = "sealed"
)

// ErrUnsealed reports an open of a container whose duplicate never
// committed (crashed or still in flight).
var ErrUnsealed = errors.New("container: not sealed (crashed or in-progress duplicate; run fsck/repair)")

// Meta is the parsed container meta file.
type Meta struct {
	State string
	// Gen is the container's generation: it starts at 0 while building
	// and is bumped by every Seal (first duplicate, Repair reseal,
	// re-Duplicate after Remove lands back at 1). Handle caches compare
	// it against the meta on disk to detect that a cached open went
	// stale without re-walking the tree.
	Gen uint64
	// TopicDirs lists the encoded topic directory names recorded at
	// seal time (v2 sealed metas only), sorted.
	TopicDirs []string
	// Derivation is the content address of the build derivation that
	// materialized this container (empty for containers that are not
	// build outputs). internal/build stamps it after Seal and compares
	// it on later builds: a matching address makes the rebuild a no-op.
	Derivation string
}

// Sealed reports whether the container committed.
func (m *Meta) Sealed() bool { return m.State == StateSealed }

// ReadMeta parses the meta file of the container rooted at root. Any
// signature but v2's is an error, which fsck reports as bad-meta and
// RepairFS reseals.
func ReadMeta(root string) (*Meta, error) {
	buf, err := os.ReadFile(filepath.Join(root, MetaFileName))
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimRight(string(buf), "\n"), "\n")
	if lines[0] != metaMagic {
		return nil, fmt.Errorf("container: unrecognized meta signature %q in %s", lines[0], root)
	}
	m := &Meta{}
	for _, line := range lines[1:] {
		switch {
		case strings.HasPrefix(line, "state="):
			m.State = strings.TrimPrefix(line, "state=")
		case strings.HasPrefix(line, "gen="):
			gen, err := strconv.ParseUint(strings.TrimPrefix(line, "gen="), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("container: malformed meta line %q in %s", line, root)
			}
			m.Gen = gen
		case strings.HasPrefix(line, "topic="):
			m.TopicDirs = append(m.TopicDirs, strings.TrimPrefix(line, "topic="))
		case strings.HasPrefix(line, "deriv="):
			m.Derivation = strings.TrimPrefix(line, "deriv=")
		case line == "":
		default:
			return nil, fmt.Errorf("container: malformed meta line %q in %s", line, root)
		}
	}
	if m.State != StateBuilding && m.State != StateSealed {
		return nil, fmt.Errorf("container: meta state %q in %s", m.State, root)
	}
	return m, nil
}

// encodeMeta renders m as a meta file.
func encodeMeta(m *Meta) []byte {
	var b strings.Builder
	b.WriteString(metaMagic)
	b.WriteByte('\n')
	b.WriteString("state=" + m.State + "\n")
	if m.Gen > 0 {
		b.WriteString("gen=" + strconv.FormatUint(m.Gen, 10) + "\n")
	}
	if m.Derivation != "" {
		b.WriteString("deriv=" + m.Derivation + "\n")
	}
	dirs := append([]string(nil), m.TopicDirs...)
	sort.Strings(dirs)
	for _, d := range dirs {
		b.WriteString("topic=" + d + "\n")
	}
	return []byte(b.String())
}

// buildingMeta is the meta CreateFS writes in place: a meta file that is
// a strict prefix of it was torn by a crash before the container's seal.
var buildingMeta = encodeMeta(&Meta{State: StateBuilding})

// writeMeta rewrites the meta of a committed container — or commits a
// building one — atomically (temp file + rename), so a crash at any
// point leaves the previous meta, never a torn one.
func writeMeta(fs faultfs.Backend, root string, m *Meta) error {
	if err := faultfs.WriteFileAtomic(fs, filepath.Join(root, MetaFileName), encodeMeta(m), 0o644); err != nil {
		return fmt.Errorf("container: write meta: %w", err)
	}
	return nil
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
// sealed meta of the container rooted at root, preserving the
// generation and manifest. The address must be a single line. A crash
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

// Seal commits the container: the meta flips to sealed, mints a fresh
// generation, and records the topic directory manifest (CommitFS).
// Until Seal succeeds the container cannot be opened or listed.
func (c *Container) Seal() error { return c.IssueSeal()() }

// IssueSeal is Seal in the two steps of CommitFS: it issues the barrier
// over the container's files and returns the finish that commits it.
// The files must not change in between; until the finish succeeds the
// container is building.
func (c *Container) IssueSeal() (finish func() error) {
	dirs := make([]string, 0, len(c.topics))
	for name := range c.topics {
		dirs = append(dirs, EncodeTopicDir(name))
	}
	m := &Meta{State: StateSealed, Gen: newGen(), TopicDirs: dirs}
	commit := CommitFS(c.fs, c.root, m)
	return func() error {
		if err := commit(); err != nil {
			return err
		}
		c.meta = m
		return nil
	}
}

// CommitFS is the second phase of a container's group commit; the first
// wrote every file of the tree at root in place, with no sync. One
// barrier (SyncAll) makes durable every file of the topic directories m
// names, those directories, root and root's parent — so the entries
// naming them are on disk too. Only then does the sealed meta m replace
// the building one by rename, the commit point, and a sync of root makes
// the rename durable. A crash anywhere before the rename leaves a
// building container, which Open and List refuse and Repair completes.
//
// CommitFS issues the barrier and returns the finish: the barrier's
// wait, the rename and the sync of root, and the first error of either
// step. Seal, Repair's reseal and a copied container run the finish at
// once; a live recording runs it at its next rotation or seal.
func CommitFS(fs faultfs.Backend, root string, m *Meta) (finish func() error) {
	fs = faultfs.Or(fs)
	dirs := append([]string(nil), m.TopicDirs...)
	sort.Strings(dirs)
	var paths []string
	for _, d := range dirs {
		dir := filepath.Join(root, d)
		ents, err := os.ReadDir(dir)
		if err != nil {
			return func() error { return fmt.Errorf("container: commit: %w", err) }
		}
		for _, ent := range ents {
			if !ent.IsDir() {
				paths = append(paths, filepath.Join(dir, ent.Name()))
			}
		}
		paths = append(paths, dir)
	}
	paths = append(paths, root, filepath.Dir(root))
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
