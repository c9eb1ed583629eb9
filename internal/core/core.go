// Package core is BORA-Lib: the public facade of the Bag Optimizer for
// Robotic Analysis. A BORA instance manages a back-end directory on the
// underlying file system in which each logical bag is stored as a
// container (internal/container). The three advanced operations of the
// paper are implemented here:
//
//   - Duplicate — data duplication (Fig 6): a one-time re-organization of
//     an existing bag into a container, performed by the data organizer:
//     one sequential scan that appends each message to its topic's
//     writer as it goes.
//   - Open + Query — data acquisition (Fig 7): opening a bag only
//     parses the container's sub-directories and builds the tag manager's
//     hash table; a query by topics resolves back-end paths through the
//     table and reads each topic's contiguous data file sequentially.
//   - Query with Start/End — query by topics and start–end time (Fig 8):
//     the coarse-grain time index bounds the scan to the windows
//     overlapping the requested range before the fine-grain timestamp
//     filter runs.
//
// Beyond the paper, CreateLiveBag records *into* the back end live:
// messages land in time-windowed sealed segments, and a
// QuerySpec{Follow: true} query tails the recording as it grows.
package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bagio"
	"repro/internal/container"
	"repro/internal/faultfs"
	"repro/internal/obs"
	"repro/internal/rosbag"
	"repro/internal/tagman"
)

// Options configure a BORA instance.
type Options struct {
	// TimeWindow is the coarse-grain time-index window width used when
	// containers are built. Zero selects timeindex.DefaultWindow. The
	// paper notes "the value of the time window can be configured by a
	// developer".
	TimeWindow time.Duration
	// Obs receives op-level metrics (latency, bytes, error counts) from
	// every layer this instance touches: core operations, the data
	// organizer, container index/data access, and the front ends mounted on
	// this back end. Nil disables recording at near-zero cost.
	Obs *obs.Registry
	// FS routes every file-system mutation this instance performs
	// (container building, index/meta persistence, front-end spooling)
	// through a faultfs backend. Nil selects the real OS; tests pass a
	// faultfs.Injector to exercise crash consistency.
	FS faultfs.Backend
	// IndexFlushEvery is the per-topic index flush granularity passed to
	// container.TopicOptions; zero selects the container default.
	IndexFlushEvery int
}

// BORA manages logical bags stored as containers under a back-end root
// directory.
type BORA struct {
	root string
	opts Options

	// liveMu guards live, the registry of in-process recorders holding
	// live bags mid-recording. Open consults it to wire a recording
	// bag's handle to its recorder.
	liveMu sync.Mutex
	live   map[string]*Recorder
}

// New opens (creating if needed) a BORA back end rooted at dir. A bag
// a Remove renamed away and did not finish deleting is deleted now.
func New(dir string, opts Options) (*BORA, error) {
	opts.FS = faultfs.Or(opts.FS)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("bora: create back end: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("bora: open back end: %w", err)
	}
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), removedPrefix) {
			if err := os.RemoveAll(filepath.Join(dir, ent.Name())); err != nil {
				return nil, fmt.Errorf("bora: open back end: %w", err)
			}
		}
	}
	return &BORA{root: dir, opts: opts}, nil
}

// Root returns the back-end directory.
func (b *BORA) Root() string { return b.root }

// Obs returns the observability registry this instance records to (nil
// when observability is off). Front ends share it via this accessor.
func (b *BORA) Obs() *obs.Registry { return b.opts.Obs }

// FS returns the file-system backend this instance mutates through
// (faultfs.OS unless Options.FS injected one). Front ends share it via
// this accessor so their spool writes join the same fault domain.
func (b *BORA) FS() faultfs.Backend { return b.opts.FS }

// List returns the names of the logical bags present on the back end:
// sealed containers, complete live bags, and live bags recording in
// this process. Unsealed containers — in-flight or crashed duplicates —
// and crashed live recordings are not listed; fsck finds those.
func (b *BORA) List() ([]string, error) {
	ents, err := os.ReadDir(b.root)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, ent := range ents {
		name := ent.Name()
		if !ent.IsDir() || ValidBagName(name) != nil {
			continue
		}
		if lm, err := readLiveMeta(filepath.Join(b.root, name)); err == nil {
			if lm.State == liveStateComplete || b.LiveRecorder(name) != nil {
				out = append(out, name)
			}
			continue
		}
		if meta, err := container.ReadMetaHead(filepath.Join(b.root, name)); err == nil && meta.Sealed() {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// ValidBagName accepts names safe to join under a back-end root: no
// path separators, no traversal, nothing hidden or empty. Every BORA
// method that takes a bag name applies it (through bagDir); build and
// vfs check the names they are given with it too.
func ValidBagName(name string) error {
	switch {
	case name == "":
		return fmt.Errorf("empty bag name")
	case len(name) > 255:
		return fmt.Errorf("bag name longer than 255 bytes")
	case strings.ContainsAny(name, "/\\\x00\n\r"):
		return fmt.Errorf("bag name %q contains a path separator or control byte", name)
	case name == "." || name == "..":
		return fmt.Errorf("bag name %q is a path traversal", name)
	case strings.HasPrefix(name, "."):
		return fmt.Errorf("bag name %q is hidden (reserved for BORA metadata)", name)
	}
	return nil
}

// bagDir is the directory of the logical bag name: the one place a
// caller's name is joined under the back-end root.
func (b *BORA) bagDir(name string) (string, error) {
	if err := ValidBagName(name); err != nil {
		return "", fmt.Errorf("bora: %w", err)
	}
	return filepath.Join(b.root, name), nil
}

// removedPrefix names a bag directory Remove has renamed away: hidden,
// so ValidBagName refuses it and List skips it. A generation follows,
// not the bag's name, which may already be NAME_MAX bytes long.
const removedPrefix = ".removed-"

// Remove deletes a logical bag — a classic container or a live bag. A
// bag a recorder in this process still holds is refused: deleting it
// would lose every later write silently. The delete is all or nothing:
// one rename, through the instance's FS, takes the bag directory to a
// hidden name that List skips and New deletes, then it is deleted.
func (b *BORA) Remove(name string) error {
	dir, err := b.bagDir(name)
	if err != nil {
		return err
	}
	if b.LiveRecorder(name) != nil {
		return fmt.Errorf("bora: bag %q is still recording in this process", name)
	}
	if _, err := os.Stat(filepath.Join(dir, container.MetaFileName)); err != nil {
		if _, lerr := os.Stat(filepath.Join(dir, LiveMetaFileName)); lerr != nil {
			return fmt.Errorf("bora: %q is not a BORA bag: %w", name, err)
		}
	}
	gone := filepath.Join(b.root, fmt.Sprintf("%s%d", removedPrefix, container.NewGen()))
	if err := b.opts.FS.Rename(dir, gone); err != nil {
		return fmt.Errorf("bora: remove %q: %w", name, err)
	}
	return os.RemoveAll(gone)
}

// DuplicateStats reports the work done by a duplication.
type DuplicateStats struct {
	Messages int64
	Bytes    int64
	Topics   int
}

// Duplicate re-organizes the bag file at bagPath into a new container
// named name (the BORA data duplication operation, Fig 6). The source
// bag is read exactly once, sequentially.
func (b *BORA) Duplicate(bagPath, name string) (*Bag, DuplicateStats, error) {
	f, err := os.Open(bagPath)
	if err != nil {
		return nil, DuplicateStats{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, DuplicateStats{}, err
	}
	return b.DuplicateFrom(f, st.Size(), name, obs.Span{})
}

// DuplicateFrom is Duplicate reading from an arbitrary source, with the
// core.duplicate span nested under parent (e.g. the front end's
// vfs.close span). A zero parent traces it as a root. On failure the
// stats count the messages that reached the back end before it.
func (b *BORA) DuplicateFrom(r io.ReaderAt, size int64, name string, parent obs.Span) (*Bag, DuplicateStats, error) {
	sp := parent.ChildOp(b.opts.Obs.Op("core.duplicate"))
	stats, err := b.organize(r, size, name, sp)
	var bag *Bag
	if err == nil {
		bag, err = b.OpenSpan(name, sp)
	}
	if err != nil {
		sp.EndErr(err)
		return nil, stats, err
	}
	sp.EndBytes(stats.Bytes)
	return bag, stats, nil
}

// organize is the Fig 6 pass on one goroutine: one scan of the source,
// each message appended to its topic's writer in a fresh segment as the
// scan delivers it (one organizer.append span each), one seal.
func (b *BORA) organize(r io.ReaderAt, size int64, name string, sp obs.Span) (DuplicateStats, error) {
	var st DuplicateStats
	dir, err := b.bagDir(name)
	if err != nil {
		return st, err
	}
	seg, err := b.createSegment(dir)
	if err != nil {
		return st, err
	}
	seg.unshared = true // the sealed container is opened afresh
	appendOp := b.opts.Obs.Op("organizer.append")
	err = rosbag.ScanSpan(r, size, sp, func(conn *bagio.Connection, t bagio.Time, data []byte) error {
		tw, err := seg.writer(conn, 0)
		if err != nil {
			return err
		}
		asp := sp.ChildOp(appendOp)
		if err := tw.Append(t, data); err != nil {
			asp.EndErr(err)
			return err
		}
		asp.EndBytes(int64(len(data)))
		return nil
	})
	if err != nil {
		seg.close()
		err = fmt.Errorf("bora: duplicate: %w", err)
	} else {
		// Every topic is complete; seal the container. This is the commit
		// point: a failure or crash before here leaves a building-state
		// container that Open/List refuse and fsck repairs.
		err = seg.seal()
	}
	// Count what reached a topic file, not what a failed write left buffered.
	st.Topics = len(seg.order)
	for _, tw := range seg.order {
		n, bytes := tw.Flushed()
		st.Messages += n
		st.Bytes += bytes
	}
	return st, err
}

// CopyContainer duplicates an existing BORA container into this back end
// by copying its directory tree ("for later data sharing, bags will be
// copied as sub-directory trees if a target machine installs BORA"). No
// re-organization happens — this is why BORA-to-BORA copies run at
// native file-system speed in Fig 9.
func (b *BORA) CopyContainer(srcRoot, name string) (*Bag, error) {
	dstRoot, err := b.bagDir(name)
	if err != nil {
		return nil, err
	}
	src, err := container.Open(srcRoot)
	if err != nil {
		return nil, err
	}
	if err := copyTree(b.opts.FS, src.Root(), dstRoot); err != nil {
		return nil, fmt.Errorf("bora: copy container: %w", err)
	}
	return b.Open(name)
}

// copyTree copies the sealed container at src to dst through fs, in
// the two phases of a seal: the source's manifest is written as a
// building one, then every file is copied in place with no sync, then
// container.CommitFS makes them durable and writes the source's
// manifest last, atomically — so a copy interrupted anywhere is a
// building container Open and List refuse and Repair completes, never a
// sealed container with topics missing.
func copyTree(fs faultfs.Backend, src, dst string) error {
	meta, err := container.ReadMeta(src)
	if err != nil {
		return err
	}
	if err := fs.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	if err := container.WriteBuildingMeta(fs, dst, meta); err != nil {
		return err
	}
	err = filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return fs.MkdirAll(target, 0o755)
		}
		if rel == container.MetaFileName {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := fs.Create(target)
		if err != nil {
			return err
		}
		_, err = io.Copy(out, in)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		return err
	})
	if err != nil {
		return err
	}
	return container.CommitFS(fs, dst, meta)()
}

// Open opens a logical bag with the BORA-assisted open (Fig 4b): parse
// the container's sub-directories and build the tag manager's hash table
// on the fly. No data or index file is touched.
func (b *BORA) Open(name string) (*Bag, error) {
	return b.OpenSpan(name, obs.Span{})
}

// OpenSpan is Open with the core.open span nested under parent (e.g.
// the duplication that triggered it, or a front-end vfs.open span). A
// zero parent traces it as a root.
func (b *BORA) OpenSpan(name string, parent obs.Span) (*Bag, error) {
	sp := parent.ChildOp(b.opts.Obs.Op("core.open"))
	bag, err := b.open(name, sp)
	sp.EndErr(err)
	return bag, err
}

// open resolves name in either layout (see bagSegments). A bag still
// recording resolves to a handle wired to its in-process recorder: its
// topic chains are re-snapshotted per query, so the handle tracks
// segment rotation. Zero segments is a legitimate (if empty) sealed bag
// — a repair of a recording that crashed before its first flush
// recovers nothing but still seals the name — and opens with no topics.
func (b *BORA) open(name string, sp obs.Span) (*Bag, error) {
	_, segDirs, lm, err := b.bagSegments(name)
	if err != nil {
		return nil, err
	}
	bag := &Bag{name: name, ops: newBagObs(b.opts.Obs)}
	var paths map[string]string // topic → dir of its first part
	if lm != nil && lm.State == liveStateRecord {
		if bag.rec = b.LiveRecorder(name); bag.rec == nil {
			return nil, fmt.Errorf("bora: bag %q is mid-recording with no live recorder (crashed or foreign process; repair it first)", name)
		}
		paths = bag.rec.topicPaths()
	} else {
		if lm != nil {
			bag.liveGen = lm.Gen
		}
		paths = map[string]string{}
		for _, sd := range segDirs {
			c, err := container.Open(sd)
			if err != nil {
				return nil, err
			}
			c.SetObs(b.opts.Obs)
			for _, topic := range c.Topics() {
				if _, ok := paths[topic]; !ok {
					if paths[topic], err = c.TopicPath(topic); err != nil {
						return nil, err
					}
				}
			}
			bag.segs = append(bag.segs, c)
		}
	}
	// The on-the-fly tag-table build of Table I, as a child of the open;
	// its bytes are the finished table's footprint ("Hash Table Size").
	tsp := sp.Child("tagman.build")
	bag.tags = tagman.Build(paths)
	tsp.EndBytes(int64(bag.tags.SizeBytes()))
	return bag, nil
}
