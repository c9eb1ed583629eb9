package container

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/faultfs"
)

// FindingKind classifies one fsck finding.
type FindingKind string

const (
	// FindingMissingMeta: the root has no meta file at all (crash before
	// the container's first write committed, or not a container).
	FindingMissingMeta FindingKind = "missing-meta"
	// FindingBadMeta: the meta file exists but does not parse. Repair
	// refuses it, unless a crash cut a building one's container header.
	FindingBadMeta FindingKind = "bad-meta"
	// FindingStaleMeta: the meta is still in the building state — the
	// organize pass that created the container never committed.
	FindingStaleMeta FindingKind = "stale-meta"
	// FindingMissingTopicDir: the manifest names a topic directory
	// absent from the tree.
	FindingMissingTopicDir FindingKind = "missing-topic-dir"
	// FindingBadConn: the manifest has no header for a topic directory,
	// or a crash cut it short: the topic cannot be served.
	FindingBadConn FindingKind = "bad-conn"
	// FindingMissingData: a topic has no data file.
	FindingMissingData FindingKind = "missing-data"
	// FindingMissingIndex: a topic has no index file; its data cannot
	// be delimited into messages.
	FindingMissingIndex FindingKind = "missing-index"
	// FindingTruncatedIndexTail: the index file length is not a
	// multiple of the entry size — a crash tore the final entry.
	FindingTruncatedIndexTail FindingKind = "truncated-index-tail"
	// FindingIndexDataMismatch: the index and data file disagree — the
	// index references bytes past the end of the data, the entries do
	// not tile contiguously, or the data file has an unindexed tail.
	FindingIndexDataMismatch FindingKind = "index-data-mismatch"
	// FindingChecksumMissing: a sealed manifest records no checksum for
	// a topic.
	FindingChecksumMissing FindingKind = "checksum-missing"
	// FindingChecksumMismatch: the checksum the sealed manifest records
	// disagrees with the data file (length or CRC).
	FindingChecksumMismatch FindingKind = "checksum-mismatch"
	// FindingTempDebris: an abandoned atomic-write temporary survived a
	// crash mid-rename.
	FindingTempDebris FindingKind = "temp-debris"
)

// Finding is one problem fsck detected.
type Finding struct {
	Kind   FindingKind
	Topic  string // empty for container-level findings
	Path   string // the offending file or directory
	Detail string
}

func (f Finding) String() string {
	if f.Topic == "" {
		return fmt.Sprintf("%s: %s", f.Kind, f.Detail)
	}
	return fmt.Sprintf("%s [%s]: %s", f.Kind, f.Topic, f.Detail)
}

// Report is the result of checking one container.
type Report struct {
	Root     string
	Findings []Finding
	// Topics is the number of topic directories in the tree.
	Topics int

	refuse error // why Repair must leave the container alone, if it must
}

// Clean reports whether fsck found nothing wrong.
func (r *Report) Clean() bool { return len(r.Findings) == 0 }

func (r *Report) add(kind FindingKind, topic, path, format string, args ...interface{}) {
	r.Findings = append(r.Findings, Finding{Kind: kind, Topic: topic, Path: path,
		Detail: fmt.Sprintf(format, args...)})
}

// topicState is everything fsck learned about one topic directory,
// reused by Repair so the repair pass does not re-derive it.
type topicState struct {
	dir  string
	name string
	tm   *topicMeta // the topic's manifest header; nil when it has none
	sum  uint32     // crc32c of the kept data: Repair's to record

	dataSize int64 // -1 when missing

	index   IndexView // the index file's whole entries
	keep    int       // longest consistent prefix backed by data
	indexed uint64    // the data bytes index[:keep] covers

	debris []string // abandoned temp files inside the topic dir
	drop   bool     // unrepairable: remove the whole topic dir
}

// tornBeforeSeal heads the detail of a finding on a file a container
// that never committed holds torn. Its files are written in place and
// synced only by the seal, so a crash mid-build can cut any of them:
// damage of a building container, not corruption of a committed bag.
const tornBeforeSeal = "building container, torn before the seal"

// Fsck checks the container rooted at root for crash damage and
// corruption, returning a typed report. It never mutates the tree; the
// error return is reserved for inability to examine it (root missing,
// permission failures), not for findings.
func Fsck(root string) (*Report, error) {
	rep, _, err := fsck(root)
	return rep, err
}

func fsck(root string) (*Report, []*topicState, error) {
	rep := &Report{Root: root}
	if _, err := os.Stat(root); err != nil {
		return nil, nil, fmt.Errorf("container: fsck %s: %w", root, err)
	}
	// building: the container never committed — its meta is missing
	// (a copy stopped before its first write), building, or its
	// container header torn while CreateFS wrote it in place.
	metaPath := filepath.Join(root, MetaFileName)
	meta, err := ReadMeta(root)
	building := err != nil || !meta.Sealed()
	switch {
	case os.IsNotExist(err):
		rep.add(FindingMissingMeta, "", metaPath, "no container meta file")
	case err != nil:
		if raw, rerr := os.ReadFile(metaPath); rerr == nil && len(raw) < len(buildingHead) && bytes.HasPrefix(buildingHead, raw) {
			rep.add(FindingBadMeta, "", metaPath, "%s: %d of the building header's %d bytes: %v", tornBeforeSeal, len(raw), len(buildingHead), err)
		} else {
			building, rep.refuse = false, err
			rep.add(FindingBadMeta, "", metaPath, "%v", err)
		}
	case !meta.Sealed():
		rep.add(FindingStaleMeta, "", metaPath,
			"meta state is %q: the organize pass never committed", meta.State)
	}
	if meta == nil {
		meta = &Meta{}
	}
	manifest := map[string]*topicMeta{}
	for i := range meta.topics {
		manifest[meta.topics[i].dir] = &meta.topics[i]
	}

	ents, err := os.ReadDir(root)
	if err != nil {
		return nil, nil, fmt.Errorf("container: fsck %s: %w", root, err)
	}
	var states []*topicState
	for _, ent := range ents {
		switch {
		case ent.IsDir():
			rep.Topics++
		case rep.refuse == nil && faultfs.IsTempDebris(ent.Name()):
			rep.add(FindingTempDebris, "", filepath.Join(root, ent.Name()),
				"abandoned atomic-write temporary")
		}
		if !ent.IsDir() || rep.refuse != nil {
			continue // a manifest Repair refuses: nothing else is examined
		}
		tm := manifest[ent.Name()]
		delete(manifest, ent.Name())
		states = append(states, fsckTopic(rep, filepath.Join(root, ent.Name()), tm, building, meta.torn))
	}
	// Every topic the manifest names must be in the tree.
	for _, tm := range meta.topics {
		if manifest[tm.dir] != nil {
			rep.add(FindingMissingTopicDir, tm.conn.Topic, filepath.Join(root, tm.dir),
				"manifest names topic dir %q but it is absent", tm.dir)
		}
	}
	return rep, states, nil
}

// fsckTopic examines one topic directory and records findings; tm is
// its manifest header (nil: none), building says the container never
// committed, and torn that a crash cut its manifest's last header.
func fsckTopic(rep *Report, dir string, tm *topicMeta, building, torn bool) *topicState {
	st := &topicState{dir: dir, name: DecodeTopicDir(filepath.Base(dir)), tm: tm, dataSize: -1}
	ents, err := os.ReadDir(dir)
	if err != nil {
		rep.add(FindingBadConn, st.name, dir, "unreadable topic dir: %v", err)
		st.drop = true
		return st
	}
	for _, ent := range ents {
		if faultfs.IsTempDebris(ent.Name()) {
			p := filepath.Join(dir, ent.Name())
			st.debris = append(st.debris, p)
			rep.add(FindingTempDebris, st.name, p, "abandoned atomic-write temporary")
		}
	}

	// Connection metadata: without it the topic is unservable.
	metaPath := filepath.Join(filepath.Dir(dir), MetaFileName)
	switch {
	case tm == nil && building && torn:
		rep.add(FindingBadConn, st.name, metaPath, "%s: the topic's header in the manifest is cut short", tornBeforeSeal)
		st.drop = true
	case tm == nil:
		rep.add(FindingBadConn, st.name, metaPath, "the manifest has no header for topic dir %q", filepath.Base(dir))
		st.drop = true
	default:
		st.name = tm.conn.Topic
	}

	// Data length.
	if r, err := openTopicData(dir); err == nil {
		st.dataSize = int64(r.size)
		r.Close()
	} else {
		rep.add(FindingMissingData, st.name, filepath.Join(dir, DataFileName), "%v", err)
	}

	// Index: read the file, then find the longest consistent prefix of
	// its whole entries actually backed by data.
	ixPath := filepath.Join(dir, IndexFileName)
	ix, err := readIndex(ixPath, new([]byte))
	if err != nil {
		rep.add(FindingMissingIndex, st.name, ixPath, "%v", err)
		st.drop = true
		return st
	}
	if tail := ix.tail(); tail != 0 {
		rep.add(FindingTruncatedIndexTail, st.name, ixPath,
			"index is %d bytes: %d-byte torn entry at the tail", len(ix.b), tail)
	}
	st.index = ix.Slice(0, ix.Len())
	var off uint64
	for i := 0; i < st.index.Len(); i++ {
		e := st.index.At(i)
		if e.LogicalOffset != off || e.PhysicalOffset != e.LogicalOffset {
			break
		}
		if st.dataSize >= 0 && off+uint64(e.Length) > uint64(st.dataSize) {
			break // references bytes the data file does not have
		}
		off += uint64(e.Length)
		st.keep++
	}
	st.indexed = off
	switch {
	case st.keep < st.index.Len():
		rep.add(FindingIndexDataMismatch, st.name, ixPath,
			"only %d of %d index entries are consistent and data-backed", st.keep, st.index.Len())
	case st.dataSize >= 0 && uint64(st.dataSize) > off:
		rep.add(FindingIndexDataMismatch, st.name, filepath.Join(dir, DataFileName),
			"data has %d bytes but the index accounts for %d (unindexed tail)", st.dataSize, off)
	}

	// The checksum the sealed manifest records; a building one has none.
	if building || tm == nil {
		return st
	}
	switch {
	case !tm.summed:
		rep.add(FindingChecksumMissing, st.name, metaPath, "the manifest records no checksum")
	case st.dataSize >= 0 && tm.size != st.dataSize:
		rep.add(FindingChecksumMismatch, st.name, metaPath,
			"checksum records %d bytes, data has %d", tm.size, st.dataSize)
	case st.dataSize >= 0:
		if got, err := crcData(dir, st.dataSize); err != nil {
			rep.add(FindingChecksumMismatch, st.name, filepath.Join(dir, DataFileName), "%v", err)
		} else if got != tm.sum {
			rep.add(FindingChecksumMismatch, st.name, metaPath,
				"data crc %08x, recorded %08x", got, tm.sum)
		}
	}
	return st
}

// crcData recomputes crc32c over the first size bytes of a topic's
// data file.
func crcData(dir string, size int64) (uint32, error) {
	r, err := openTopicData(dir)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	h := crc32.New(crcTable)
	if _, err := io.Copy(h, io.NewSectionReader(r, 0, size)); err != nil {
		return 0, err
	}
	return h.Sum32(), nil
}

// RepairFS restores the container at root to a consistent, sealed state:
// temp debris is removed, each topic is truncated to its longest
// consistent indexed prefix (index first, then data), checksums are
// recomputed over the surviving prefix, topics with no manifest header,
// data or index are dropped, and the manifest is resealed with the
// survivors. The result is the post-repair fsck report (clean on
// success) — the repaired container holds a prefix of every topic's
// original messages, never altered ones. A manifest that does not parse
// (and is not a building one a crash cut inside its container header)
// is refused: the topics' connections are in it alone. Mutations go
// through fs (nil: faultfs.OS).
func RepairFS(root string, fs faultfs.Backend) (*Report, error) {
	fs = faultfs.Or(fs)
	rep, states, err := fsck(root)
	if err != nil {
		return nil, err
	}
	if rep.Clean() {
		return rep, nil
	}
	if rep.refuse != nil {
		return nil, fmt.Errorf("container: repair %s: %w", root, rep.refuse)
	}
	var kept []topicMeta
	for _, st := range states {
		if err := repairTopic(fs, st); err != nil {
			return nil, fmt.Errorf("container: repair %s: %w", st.dir, err)
		}
		if !st.drop {
			tm := *st.tm
			tm.summed, tm.sum, tm.size = true, st.sum, int64(st.indexed)
			kept = append(kept, tm)
		}
	}
	// Root-level debris.
	ents, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	for _, ent := range ents {
		if !ent.IsDir() && faultfs.IsTempDebris(ent.Name()) {
			if err := fs.Remove(filepath.Join(root, ent.Name())); err != nil {
				return nil, err
			}
		}
	}
	// A repair reseal mints a fresh generation: cached handles built from
	// the pre-repair tree must read as stale even when the surviving
	// topic set is unchanged. It commits like a seal: the rewritten files
	// are durable before the manifest names them. Its barrier syncs the
	// manifest: a tree with none gets an empty building one first.
	if _, err := os.Stat(filepath.Join(root, MetaFileName)); os.IsNotExist(err) {
		if err := WriteBuildingMeta(fs, root, &Meta{}); err != nil {
			return nil, err
		}
	}
	if err := CommitFS(fs, root, &Meta{State: StateSealed, Gen: newGen(), topics: kept})(); err != nil {
		return nil, err
	}
	return Fsck(root)
}

// repairTopic makes one topic consistent: drop it entirely, or truncate
// index and data to the consistent prefix and recompute its checksum.
func repairTopic(fs faultfs.Backend, st *topicState) error {
	if st.dataSize < 0 {
		st.drop = true // no data file: nothing recoverable
	}
	if st.drop {
		return os.RemoveAll(st.dir)
	}
	for _, p := range st.debris {
		if err := fs.Remove(p); err != nil {
			return err
		}
	}
	indexed := st.indexed
	if err := fs.Truncate(filepath.Join(st.dir, IndexFileName), int64(st.keep*IndexEntrySize)); err != nil {
		return err
	}
	if uint64(st.dataSize) != indexed {
		if err := fs.Truncate(filepath.Join(st.dir, DataFileName), int64(indexed)); err != nil {
			return err
		}
	}
	var err error
	st.sum, err = crcData(st.dir, int64(indexed))
	return err
}
