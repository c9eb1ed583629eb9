package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/container"
	"repro/internal/faultfs"
)

// Live bag layout. A live bag is a directory holding a .bora_live meta
// file plus one standard container per time-windowed segment:
//
//	<root>/<name>/.bora_live     state=recording|complete
//	<root>/<name>/seg-00000000/  container (sealed once its window closes)
//	<root>/<name>/seg-00000001/  container (building = the live tail)
//
// While recording, the meta says "recording" and exactly the newest
// segment is building; each rotation seals the old segment through the
// ordinary building→sealed container lifecycle, so at any instant the
// sealed prefix is fully consistent and a crash loses at most the
// building segment's unflushed index tail (container.Repair truncates
// it back to the flushed prefix, exactly as in the crash sweep).
// Completion writes "complete" plus a fresh generation token, making
// the bag a plain multi-segment container set that opens anywhere.
const (
	// LiveMetaFileName marks a live bag directory.
	LiveMetaFileName = ".bora_live"

	liveMetaMagic     = "bora-live v1"
	liveStateRecord   = "recording"
	liveStateComplete = "complete"

	segmentPrefix = "seg-"
)

// DefaultSegmentWindow is the live rotation window when CreateLiveBag
// is given none: long enough that segment-count overhead is noise,
// short enough that a mission's sealed prefix stays fresh.
const DefaultSegmentWindow = time.Minute

// liveMeta is the parsed .bora_live file.
type liveMeta struct {
	State  string
	Window int64  // rotation window (ns)
	Gen    uint64 // generation minted at completion (complete only)
}

func segmentDir(bagDir string, n int) string {
	return filepath.Join(bagDir, fmt.Sprintf("%s%08d", segmentPrefix, n))
}

// readLiveMeta parses dir/.bora_live; os.IsNotExist(err) distinguishes
// "not a live bag" from a malformed one.
func readLiveMeta(dir string) (*liveMeta, error) {
	buf, err := os.ReadFile(filepath.Join(dir, LiveMetaFileName))
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimRight(string(buf), "\n"), "\n")
	if len(lines) == 0 || lines[0] != liveMetaMagic {
		return nil, fmt.Errorf("bora: unrecognized live meta in %s", dir)
	}
	m := &liveMeta{}
	for _, line := range lines[1:] {
		switch {
		case strings.HasPrefix(line, "state="):
			m.State = strings.TrimPrefix(line, "state=")
		case strings.HasPrefix(line, "window="):
			w, err := strconv.ParseInt(strings.TrimPrefix(line, "window="), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bora: malformed live meta line %q in %s", line, dir)
			}
			m.Window = w
		case strings.HasPrefix(line, "gen="):
			g, err := strconv.ParseUint(strings.TrimPrefix(line, "gen="), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bora: malformed live meta line %q in %s", line, dir)
			}
			m.Gen = g
		case line == "":
		default:
			return nil, fmt.Errorf("bora: malformed live meta line %q in %s", line, dir)
		}
	}
	if m.State != liveStateRecord && m.State != liveStateComplete {
		return nil, fmt.Errorf("bora: live meta state %q in %s", m.State, dir)
	}
	return m, nil
}

// writeLiveMeta persists m atomically (temp + rename), the same
// all-or-nothing discipline as container metas.
func writeLiveMeta(fs faultfs.Backend, dir string, m *liveMeta) error {
	var b strings.Builder
	b.WriteString(liveMetaMagic)
	b.WriteByte('\n')
	b.WriteString("state=" + m.State + "\n")
	b.WriteString("window=" + strconv.FormatInt(m.Window, 10) + "\n")
	if m.Gen > 0 {
		b.WriteString("gen=" + strconv.FormatUint(m.Gen, 10) + "\n")
	}
	if err := faultfs.WriteFileAtomic(fs, filepath.Join(dir, LiveMetaFileName), []byte(b.String()), 0o644); err != nil {
		return fmt.Errorf("bora: write live meta: %w", err)
	}
	return nil
}

// segmentDirs lists dir's seg-* sub-directories, sorted (segment
// creation order — the fixed-width numbering makes the sort numeric).
func segmentDirs(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, ent := range ents {
		if ent.IsDir() && strings.HasPrefix(ent.Name(), segmentPrefix) {
			out = append(out, filepath.Join(dir, ent.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}

// CreateLiveBag starts a live recording: a segmented bag that rotates a
// fresh sealed container every window (zero selects
// DefaultSegmentWindow) and is queryable mid-recording — Open on this
// instance returns a handle wired to the recorder, and
// QuerySpec{Follow: true} tails it. Exactly one recorder may hold a
// name at a time.
func (b *BORA) CreateLiveBag(name string, window time.Duration) (*Recorder, error) {
	if window <= 0 {
		window = DefaultSegmentWindow
	}
	dir := filepath.Join(b.root, name)
	if _, err := os.Stat(dir); err == nil {
		return nil, fmt.Errorf("bora: bag %q already exists", name)
	}
	if err := b.opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("bora: create live bag: %w", err)
	}
	if err := writeLiveMeta(b.opts.FS, dir, &liveMeta{State: liveStateRecord, Window: int64(window)}); err != nil {
		return nil, err
	}
	seg, err := b.createSegment(segmentDir(dir, 0))
	if err != nil {
		return nil, err
	}
	r := b.newRecorder(name, seg)
	r.live, r.window = true, int64(window)
	if err := b.registerLive(name, r); err != nil {
		return nil, err
	}
	return r, nil
}

func (b *BORA) registerLive(name string, r *Recorder) error {
	b.liveMu.Lock()
	defer b.liveMu.Unlock()
	if b.live == nil {
		b.live = map[string]*Recorder{}
	}
	if _, ok := b.live[name]; ok {
		return fmt.Errorf("bora: bag %q is already recording", name)
	}
	b.live[name] = r
	return nil
}

func (b *BORA) unregisterLive(name string, r *Recorder) {
	b.liveMu.Lock()
	if b.live[name] == r {
		delete(b.live, name)
	}
	b.liveMu.Unlock()
}

// LiveRecorder returns the in-process recorder currently holding name,
// or nil.
func (b *BORA) LiveRecorder(name string) *Recorder {
	b.liveMu.Lock()
	defer b.liveMu.Unlock()
	return b.live[name]
}

// bagSegments lists the container directories of the logical bag name
// and, for a live bag, its parsed meta. A classic bag is the one-segment
// case: the bag directory itself, with a nil meta.
func (b *BORA) bagSegments(name string) (dir string, segDirs []string, lm *liveMeta, err error) {
	dir = filepath.Join(b.root, name)
	lm, err = readLiveMeta(dir)
	if os.IsNotExist(err) {
		return dir, []string{dir}, nil, nil
	}
	if err == nil {
		segDirs, err = segmentDirs(dir)
	}
	return dir, segDirs, lm, err
}

// Fsck checks the logical bag name in either layout and returns one
// container report per segment (a classic bag's single report is rooted
// at the bag directory itself) plus, for a live bag whose meta still
// says recording — a crashed recorder, or one alive in another process —
// the live-unsealed finding. It never mutates the tree.
func (b *BORA) Fsck(name string) (segs []*container.Report, unsealed *container.Finding, err error) {
	dir, segDirs, lm, err := b.bagSegments(name)
	if err != nil {
		return nil, nil, err
	}
	for _, sd := range segDirs {
		rep, err := container.Fsck(sd)
		if err != nil {
			return nil, nil, err
		}
		segs = append(segs, rep)
	}
	if lm != nil && lm.State == liveStateRecord {
		unsealed = &container.Finding{Kind: "live-unsealed", Path: filepath.Join(dir, LiveMetaFileName),
			Detail: "recorder did not seal (crash or still recording elsewhere)"}
	}
	return segs, unsealed, nil
}

// Repair restores the logical bag name to a consistent, sealed state
// and returns every segment's post-repair report (clean on success).
// Each damaged segment is cut back to its consistent indexed prefix by
// container.Repair — an abandoned live recording loses at most its
// building segment's unflushed index tail — and a live bag that was
// still recording, or had a segment repaired, gets a complete meta with
// a fresh generation. Repairing a clean bag changes nothing.
func (b *BORA) Repair(name string) ([]*container.Report, error) {
	dir, segDirs, lm, err := b.bagSegments(name)
	if err != nil {
		return nil, err
	}
	if b.LiveRecorder(name) != nil {
		return nil, fmt.Errorf("bora: bag %q is still recording in this process", name)
	}
	var segs []*container.Report
	repaired := false
	for _, sd := range segDirs {
		rep, err := container.Fsck(sd)
		if err == nil && !rep.Clean() {
			repaired = true
			rep, err = container.RepairFS(sd, b.opts.FS)
		}
		if err != nil {
			return nil, fmt.Errorf("bora: repair %s: %w", sd, err)
		}
		segs = append(segs, rep)
	}
	if lm != nil && (repaired || lm.State == liveStateRecord) {
		err = writeLiveMeta(b.opts.FS, dir, &liveMeta{
			State: liveStateComplete, Window: lm.Window, Gen: container.NewGen(),
		})
	}
	return segs, err
}

// ProbeBag is the handle-cache staleness probe for one bag directory,
// covering both layouts with one small meta read. recording=true means
// a live recorder currently holds the bag (a cached handle is fresh iff
// it is wired to an in-process recorder); otherwise gen is the sealed
// generation token to compare (the live meta's completion gen, or the
// classic container's seal gen).
func (b *BORA) ProbeBag(name string) (gen uint64, recording bool, err error) {
	dir := filepath.Join(b.root, name)
	if lm, err := readLiveMeta(dir); err == nil {
		if lm.State == liveStateRecord {
			return 0, true, nil
		}
		return lm.Gen, false, nil
	} else if !os.IsNotExist(err) {
		return 0, false, err
	}
	meta, err := container.ReadMeta(dir)
	if err != nil {
		return 0, false, err
	}
	if !meta.Sealed() {
		return 0, false, container.ErrUnsealed
	}
	return meta.Gen, false, nil
}
