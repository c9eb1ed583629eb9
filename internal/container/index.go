package container

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"

	"repro/internal/bagio"
	"repro/internal/obs"
)

// IndexEntrySize is the fixed on-disk width of one index entry:
// sec u32, nsec u32, logical offset u64, length u32, physical offset u64.
const IndexEntrySize = 4 + 4 + 8 + 4 + 8

// IndexEntry locates one message of a topic. LogicalOffset is the byte
// offset within the topic's logical stream; PhysicalOffset points into
// the topic data file (they coincide for the local POSIX back end but
// differ when a back end relocates data).
type IndexEntry struct {
	Time           bagio.Time
	LogicalOffset  uint64
	Length         uint32
	PhysicalOffset uint64
}

func (e IndexEntry) encode(dst []byte) {
	binary.LittleEndian.PutUint32(dst[0:4], e.Time.Sec)
	binary.LittleEndian.PutUint32(dst[4:8], e.Time.NSec)
	binary.LittleEndian.PutUint64(dst[8:16], e.LogicalOffset)
	binary.LittleEndian.PutUint32(dst[16:20], e.Length)
	binary.LittleEndian.PutUint64(dst[20:28], e.PhysicalOffset)
}

func decodeIndexEntry(src []byte) IndexEntry {
	src = src[:IndexEntrySize]
	return IndexEntry{
		Time:           bagio.Time{Sec: binary.LittleEndian.Uint32(src[0:4]), NSec: binary.LittleEndian.Uint32(src[4:8])},
		LogicalOffset:  binary.LittleEndian.Uint64(src[8:16]),
		Length:         binary.LittleEndian.Uint32(src[16:20]),
		PhysicalOffset: binary.LittleEndian.Uint64(src[20:28]),
	}
}

// IndexView is a run of encoded index entries in bytes the process
// owns: a sealed part's index file as read, a writer's append buffer,
// or the survivors a query selected. At decodes one entry, Time one
// timestamp; nothing decodes a whole index. Copies of a view share its
// bytes.
type IndexView struct{ b []byte }

// Len returns the number of whole entries in the view.
func (v IndexView) Len() int { return len(v.b) / IndexEntrySize }

// At decodes entry i.
func (v IndexView) At(i int) IndexEntry { return decodeIndexEntry(v.b[i*IndexEntrySize:]) }

// Time decodes entry i's timestamp alone.
func (v IndexView) Time(i int) bagio.Time {
	x := binary.LittleEndian.Uint64(v.b[i*IndexEntrySize:])
	return bagio.Time{Sec: uint32(x), NSec: uint32(x >> 32)}
}

// tail is the length of a torn entry after the whole ones.
func (v IndexView) tail() int { return len(v.b) % IndexEntrySize }

// Slice returns entries [lo, hi) as a view of the same bytes.
func (v IndexView) Slice(lo, hi int) IndexView {
	return IndexView{b: v.b[lo*IndexEntrySize : hi*IndexEntrySize : hi*IndexEntrySize]}
}

// MakeIndexView returns an empty view with room for n appended entries.
func MakeIndexView(n int) IndexView { return IndexView{b: make([]byte, 0, n*IndexEntrySize)} }

// Append returns the view with e encoded after its entries. A view that
// Index or Slice returns is full to its capacity, so appending copies
// it: only views built by MakeIndexView and Append grow in place.
func (v IndexView) Append(e IndexEntry) IndexView {
	n := len(v.b)
	v.b = append(v.b, make([]byte, IndexEntrySize)...)
	e.encode(v.b[n:])
	return v
}

// Reset empties a view built by MakeIndexView and Append, keeping its
// room when that holds n entries, else making room for n. Only such a
// view: any other's bytes are shared.
func (v IndexView) Reset(n int) IndexView {
	if cap(v.b) < n*IndexEntrySize {
		return MakeIndexView(n)
	}
	return IndexView{b: v.b[:0]}
}

// SortedByTime returns v's entries stably sorted by time, as a new view.
func (v IndexView) SortedByTime() IndexView {
	es := v.entries()
	sort.SliceStable(es, func(i, j int) bool { return es[i].Time.Before(es[j].Time) })
	out := MakeIndexView(len(es))
	for _, e := range es {
		out = out.Append(e)
	}
	return out
}

// entries decodes the view into a fresh slice.
func (v IndexView) entries() []IndexEntry {
	es := make([]IndexEntry, v.Len())
	for i := range es {
		es[i] = v.At(i)
	}
	return es
}

// Index returns the topic's index, its load from a sealed part traced
// as a container.index_load child of parent. A part being written
// serves its writer's published entries. A sealed part's index file is
// read, never mapped: for a handle that maps its data (MapData) once,
// into bytes the handle holds; for any other, on every call, into *buf
// (nil: bytes of the call's own), which the view then lies in. A torn
// final entry is refused (fsck reports it, repair drops it).
func (t *Topic) Index(parent obs.Span, buf *[]byte) (IndexView, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.loaded {
		return t.ix, nil
	}
	if buf == nil || t.mapped {
		buf = new([]byte)
	}
	sp := parent.ChildOp(t.indexLoadOp)
	v, err := readIndex(filepath.Join(t.dir, IndexFileName), buf)
	if err == nil {
		err = t.torn(len(v.b))
	}
	if err != nil {
		sp.EndErr(err)
		return IndexView{}, err
	}
	sp.EndBytes(int64(len(v.b)))
	if t.mapped {
		t.ix, t.loaded = v, true
	}
	return v, nil
}

// torn refuses an index file of size bytes that ends in a torn entry.
func (t *Topic) torn(size int) error {
	if tail := size % IndexEntrySize; tail != 0 {
		return fmt.Errorf("container: index of %q: %d-byte torn entry after %d whole ones", t.topic, tail, size/IndexEntrySize)
	}
	return nil
}

// readIndex is the one reader of an index file: the file at path read
// whole by pread into *buf, grown to fit. A read cut short by a cut
// since the fstat keeps the whole entries it got; a file that ends in a
// torn entry is read with it, for the caller to refuse or report.
func readIndex(path string, buf *[]byte) (IndexView, error) {
	fd, st, err := openFile(path)
	if err != nil {
		return IndexView{}, err
	}
	defer syscall.Close(fd)
	if cap(*buf) < int(st.Size) {
		*buf = make([]byte, st.Size)
	}
	b, n := (*buf)[:st.Size], 0
	for n < len(b) {
		k, err := syscall.Pread(fd, b[n:], int64(n))
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return IndexView{}, &os.PathError{Op: "pread", Path: path, Err: err}
		}
		if k == 0 {
			n -= n % IndexEntrySize
			break
		}
		n += k
	}
	return IndexView{b: b[:n:n]}, nil
}

// Ordered returns how many of v's leading entries — v is the topic's
// index or a prefix of it — are in time order (non-decreasing Time).
// It is found on the first call, and only grows as a writer publishes
// entries, while the order reaches the end; a topic-order scan never
// asks.
func (t *Topic) Ordered(v IndexView) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.ordered == t.checked && t.checked < v.Len() {
		if t.checked == 0 || !v.Time(t.checked).Before(v.Time(t.checked-1)) {
			t.ordered++
		}
		t.checked++
	}
	return min(t.ordered, v.Len())
}

// Entries decodes the topic's index entries, in append order, into a
// fresh slice; queries read the index through Index.
func (t *Topic) Entries() ([]IndexEntry, error) {
	v, err := t.Index(obs.Span{}, nil)
	return v.entries(), err
}

// MessageCount returns the number of indexed messages: a sealed part
// whose index is not held is counted by its index file's length, no
// entry read.
func (t *Topic) MessageCount() (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.loaded {
		return t.ix.Len(), nil
	}
	st, err := os.Stat(filepath.Join(t.dir, IndexFileName))
	if err != nil {
		return 0, fmt.Errorf("container: index of %q: %w", t.topic, err)
	}
	return int(st.Size()) / IndexEntrySize, t.torn(int(st.Size()))
}

// ordinal is e's position among the topic's entries, -1 if it is none
// of them: looked up only to name an entry in an error.
func (t *Topic) ordinal(e IndexEntry) int {
	v, _ := t.Index(obs.Span{}, nil)
	for i := 0; i < v.Len(); i++ {
		if v.At(i) == e {
			return i
		}
	}
	return -1
}
