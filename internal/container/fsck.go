package container

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/faultfs"
)

// FindingKind classifies one fsck finding.
type FindingKind string

const (
	// FindingMissingMeta: the root has no meta file at all (crash before
	// the container's first write committed, or not a container).
	FindingMissingMeta FindingKind = "missing-meta"
	// FindingBadMeta: the meta file exists but does not parse.
	FindingBadMeta FindingKind = "bad-meta"
	// FindingStaleMeta: the meta is still in the building state — the
	// organize pass that created the container never committed.
	FindingStaleMeta FindingKind = "stale-meta"
	// FindingMissingTopicDir: the sealed manifest names a topic
	// directory absent from the tree.
	FindingMissingTopicDir FindingKind = "missing-topic-dir"
	// FindingBadConn: a topic's connection file is missing or does not
	// decode; without it the topic cannot be served.
	FindingBadConn FindingKind = "bad-conn"
	// FindingStripedLayout: a topic's conn file declares the striped
	// data layout of an older build (ErrStripedLayout). Nothing else in
	// the directory is examined, and Repair refuses the container
	// rather than dropping data it cannot read.
	FindingStripedLayout FindingKind = "striped-layout"
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
	// FindingOrphanTimeWindows: the coarse time index references
	// message ordinals beyond the message index.
	FindingOrphanTimeWindows FindingKind = "orphan-time-windows"
	// FindingBadTimeIdx: the coarse time index is missing or does not
	// parse (always rebuildable from the message index).
	FindingBadTimeIdx FindingKind = "bad-timeidx"
	// FindingChecksumMissing: a topic has no checksum record.
	FindingChecksumMissing FindingKind = "checksum-missing"
	// FindingChecksumMismatch: the checksum record disagrees with the
	// data file (length or CRC).
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
	// Topics is the number of topic directories examined.
	Topics int
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
	dir    string
	name   string
	window int64 // timeidx window (ns) if the old file parsed, else 0

	dataSize int64 // -1 when missing

	rawEntries []IndexEntry // decoded whole-entry prefix of the index file
	keep       int          // longest consistent prefix backed by data

	debris []string // abandoned temp files inside the topic dir
	drop   bool     // unrepairable: remove the whole topic dir
}

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
	meta, err := ReadMeta(root)
	switch {
	case os.IsNotExist(err):
		rep.add(FindingMissingMeta, "", filepath.Join(root, MetaFileName), "no container meta file")
	case err != nil:
		rep.add(FindingBadMeta, "", filepath.Join(root, MetaFileName), "%v", err)
	case !meta.Sealed():
		rep.add(FindingStaleMeta, "", filepath.Join(root, MetaFileName),
			"meta state is %q: the organize pass never committed", meta.State)
	}

	ents, err := os.ReadDir(root)
	if err != nil {
		return nil, nil, fmt.Errorf("container: fsck %s: %w", root, err)
	}
	present := map[string]bool{}
	var states []*topicState
	for _, ent := range ents {
		if !ent.IsDir() {
			if faultfs.IsTempDebris(ent.Name()) {
				rep.add(FindingTempDebris, "", filepath.Join(root, ent.Name()),
					"abandoned atomic-write temporary")
			}
			continue
		}
		present[ent.Name()] = true
		st := fsckTopic(rep, filepath.Join(root, ent.Name()), ent.Name())
		states = append(states, st)
	}
	rep.Topics = len(states)

	// The sealed manifest, when present, must be covered by the tree.
	if meta != nil && meta.Sealed() {
		for _, dir := range meta.TopicDirs {
			if !present[dir] {
				rep.add(FindingMissingTopicDir, DecodeTopicDir(dir), filepath.Join(root, dir),
					"manifest names topic dir %q but it is absent", dir)
			}
		}
	}
	return rep, states, nil
}

// fsckTopic examines one topic directory and records findings.
func fsckTopic(rep *Report, dir, dirName string) *topicState {
	st := &topicState{dir: dir, name: DecodeTopicDir(dirName), dataSize: -1}

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
	if conn, err := readConn(dir); errors.Is(err, ErrStripedLayout) {
		rep.add(FindingStripedLayout, st.name, filepath.Join(dir, ConnFileName), "%v", err)
		return st
	} else if err != nil {
		rep.add(FindingBadConn, st.name, filepath.Join(dir, ConnFileName), "%v", err)
		st.drop = true
	} else {
		st.name = conn.Topic
	}

	// Data length.
	if r, err := openTopicData(dir); err == nil {
		st.dataSize = int64(r.size)
		r.Close()
	} else {
		rep.add(FindingMissingData, st.name, filepath.Join(dir, DataFileName), "%v", err)
	}

	// Index: decode the whole-entry prefix, then find the longest
	// consistent prefix actually backed by data.
	ixPath := filepath.Join(dir, IndexFileName)
	ixBytes, err := os.ReadFile(ixPath)
	if err != nil {
		rep.add(FindingMissingIndex, st.name, ixPath, "%v", err)
		st.drop = true
		return st
	}
	if tail := len(ixBytes) % IndexEntrySize; tail != 0 {
		rep.add(FindingTruncatedIndexTail, st.name, ixPath,
			"index is %d bytes: %d-byte torn entry at the tail", len(ixBytes), tail)
		ixBytes = ixBytes[:len(ixBytes)-tail]
	}
	st.rawEntries = make([]IndexEntry, len(ixBytes)/IndexEntrySize)
	for i := range st.rawEntries {
		st.rawEntries[i] = decodeIndexEntry(ixBytes[i*IndexEntrySize:])
	}
	var off uint64
	for _, e := range st.rawEntries {
		if e.LogicalOffset != off || e.PhysicalOffset != e.LogicalOffset {
			break
		}
		if st.dataSize >= 0 && off+uint64(e.Length) > uint64(st.dataSize) {
			break // references bytes the data file does not have
		}
		off += uint64(e.Length)
		st.keep++
	}
	indexed := off
	switch {
	case st.keep < len(st.rawEntries):
		rep.add(FindingIndexDataMismatch, st.name, ixPath,
			"only %d of %d index entries are consistent and data-backed", st.keep, len(st.rawEntries))
	case st.dataSize >= 0 && uint64(st.dataSize) > indexed:
		rep.add(FindingIndexDataMismatch, st.name, filepath.Join(dir, DataFileName),
			"data has %d bytes but the index accounts for %d (unindexed tail)", st.dataSize, indexed)
	}

	// Coarse time index: rebuildable from the message index, so missing
	// or unparsable is one (repairable) finding; orphans another.
	tixPath := filepath.Join(dir, TimeIdxFileName)
	if tix, err := readTimeIndex(dir); err != nil {
		rep.add(FindingBadTimeIdx, st.name, tixPath, "%v", err)
	} else {
		st.window = int64(tix.Window())
		if max, ok := tix.MaxPosition(); ok && int(max) >= st.keep {
			rep.add(FindingOrphanTimeWindows, st.name, tixPath,
				"time windows reference ordinal %d but only %d messages are indexed", max, st.keep)
		}
	}

	// Checksum record over the data stream.
	sum, length, err := readChecksum(dir)
	switch {
	case os.IsNotExist(err):
		rep.add(FindingChecksumMissing, st.name, filepath.Join(dir, ChecksumFileName), "no checksum record")
	case err != nil:
		rep.add(FindingChecksumMismatch, st.name, filepath.Join(dir, ChecksumFileName), "%v", err)
	case st.dataSize >= 0 && length != st.dataSize:
		rep.add(FindingChecksumMismatch, st.name, filepath.Join(dir, ChecksumFileName),
			"checksum records %d bytes, data has %d", length, st.dataSize)
	case st.dataSize >= 0:
		if got, err := crcData(dir, st.dataSize); err != nil {
			rep.add(FindingChecksumMismatch, st.name, filepath.Join(dir, ChecksumFileName), "%v", err)
		} else if got != sum {
			rep.add(FindingChecksumMismatch, st.name, filepath.Join(dir, ChecksumFileName),
				"data crc %08x, recorded %08x", got, sum)
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

// Repair restores the container at root to a consistent, sealed state:
// temp debris is removed, each topic is truncated to its longest
// consistent indexed prefix (index first, then data), coarse time
// indexes and checksums are rebuilt from the surviving prefix, topics
// with no usable connection or index are dropped, and the meta is
// resealed with the surviving manifest. The result is the post-repair
// fsck report (clean on success) — the repaired container holds a
// prefix of every topic's original messages, never altered ones.
func Repair(root string) (*Report, error) {
	return RepairFS(root, faultfs.OS)
}

// RepairFS is Repair with mutations routed through fs.
func RepairFS(root string, fs faultfs.Backend) (*Report, error) {
	fs = faultfs.Or(fs)
	rep, states, err := fsck(root)
	if err != nil {
		return nil, err
	}
	if rep.Clean() {
		return rep, nil
	}
	for _, f := range rep.Findings {
		if f.Kind == FindingStripedLayout {
			return nil, fmt.Errorf("container: repair %s: %w", f.Path, ErrStripedLayout)
		}
	}
	var manifest []string
	for _, st := range states {
		if err := repairTopic(fs, st); err != nil {
			return nil, fmt.Errorf("container: repair %s: %w", st.dir, err)
		}
		if !st.drop {
			manifest = append(manifest, filepath.Base(st.dir))
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
	sort.Strings(manifest)
	// A repair reseal mints a fresh generation: cached handles built from
	// the pre-repair tree must read as stale even when the surviving
	// topic set is unchanged.
	if err := writeMeta(fs, root, &Meta{Version: 2, State: StateSealed, Gen: newGen(), TopicDirs: manifest}); err != nil {
		return nil, err
	}
	return Fsck(root)
}

// repairTopic makes one topic consistent: drop it entirely, or truncate
// index and data to the consistent prefix and rebuild the derived files.
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
	keepEntries := st.rawEntries[:st.keep]
	indexed := indexedLen(st)
	if err := fs.Truncate(filepath.Join(st.dir, IndexFileName), int64(st.keep*IndexEntrySize)); err != nil {
		return err
	}
	if uint64(st.dataSize) != indexed {
		if err := fs.Truncate(filepath.Join(st.dir, DataFileName), int64(indexed)); err != nil {
			return err
		}
	}
	// Rebuild the coarse time index from the surviving entries, keeping
	// the original window when the old file was readable (0 selects the
	// default).
	if err := writeTimeIndex(fs, st.dir, buildTimeIndex(time.Duration(st.window), keepEntries)); err != nil {
		return err
	}
	// Recompute the checksum over the surviving data.
	sum, err := crcData(st.dir, int64(indexed))
	if err != nil {
		return err
	}
	return writeChecksum(fs, st.dir, sum, int64(indexed))
}

// indexedLen returns the byte length the consistent index prefix covers.
func indexedLen(st *topicState) uint64 {
	var n uint64
	for _, e := range st.rawEntries[:st.keep] {
		n += uint64(e.Length)
	}
	return n
}
