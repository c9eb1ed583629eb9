package container

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// mapping is a sealed part's data file mapped read-only, made on the
// part's first read by a long-lived handle (MapData) and shared by all
// its queries; a finalizer unmaps it once neither the topic nor a cursor
// reading it reaches it. The descriptor is closed right after mmap.
type mapping struct {
	data []byte
	file os.FileInfo   // the file mapped: a path re-created since is another file
	path string        // re-measured once per query
	size atomic.Uint64 // the file's length as last measured, at most len(data): reads end here
}

// MapData makes the container's topics read their data through one
// mapping each instead of a file opened per query: worth it for a handle
// that serves many queries, not for a one-shot open, whose mappings
// would wait for a garbage collection. Sealed containers only.
func (c *Container) MapData() {
	for _, t := range c.topics {
		t.mapped = true
	}
}

// mapData returns the topic's mapping, made on first use, re-measuring
// the file (one stat) so that a part cut between queries is read to its
// new end. Nil — mmap fails for an empty file, or at the system's
// map-count limit — means read the plain file.
func (t *Topic) mapData() *mapping {
	t.mu.Lock()
	defer t.mu.Unlock()
	if m := t.mapping; m != nil {
		m.measure()
		return m
	}
	d, err := openTopicData(t.dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	fi, err := d.Stat()
	if err != nil {
		return nil
	}
	data, err := syscall.Mmap(int(d.Fd()), 0, int(d.size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil
	}
	m := &mapping{data: data, file: fi, path: d.Name()}
	m.size.Store(uint64(len(data)))
	runtime.SetFinalizer(m, func(m *mapping) { syscall.Munmap(m.data) })
	t.mapping = m
	return m
}

func (m *mapping) ReadAt(p []byte, off int64) (int, error) {
	size := m.size.Load()
	if off < 0 || uint64(off) > size {
		return 0, io.EOF
	}
	if n := copy(p, m.data[off:size]); n < len(p) {
		return n, io.EOF
	}
	return len(p), nil
}

// Close is a no-op: the mapping is the handle's, not the query's.
func (m *mapping) Close() error { return nil }

func (m *mapping) length(uint64) uint64 { return m.size.Load() }

// measure asks the file's length again (one stat) and reads to it from
// now on; a path removed or re-created leaves the mapped file as it was.
func (m *mapping) measure() uint64 {
	if fi, err := os.Stat(m.path); err == nil && os.SameFile(fi, m.file) {
		m.size.Store(min(uint64(fi.Size()), uint64(len(m.data))))
	}
	return m.size.Load()
}

// Remeasure ends a query's reads through r, which delivered bytes up to
// file offset end. A mapped part cut during the query reads zeros from
// the cut to its page's end instead of faulting: only its length, asked
// again, tells that what was delivered past the cut was not its data.
// Nil for other readers, whose reads past a cut come up short.
func (t *Topic) Remeasure(r DataReader, end uint64) error {
	if m, ok := r.(*mapping); ok && m.measure() < end {
		return fmt.Errorf("container: topic %q: data cut to %d bytes under a mapped read that delivered up to %d: %w", t.topic, m.size.Load(), end, ErrIndexBeyondData)
	}
	return nil
}

// Fault turns p, a panic's value out of code using bytes read through
// r, into the error it stands for: a memory fault (a panic only under
// runtime/debug.SetPanicOnFault) inside r's mapping is the part cut
// under it, the topic's ErrIndexBeyondData. Anything else is nil, for
// the caller to re-panic.
func (t *Topic) Fault(r DataReader, p any) error {
	m, ok := r.(*mapping)
	f, isFault := p.(interface{ Addr() uintptr })
	if !ok || !isFault {
		return nil
	}
	off := f.Addr() - uintptr(unsafe.Pointer(unsafe.SliceData(m.data)))
	if off >= uintptr(len(m.data)) { // below the mapping, off wraps around
		return nil
	}
	return fmt.Errorf("container: topic %q: data cut under a mapped read (fault at offset %d): %w", t.topic, off, ErrIndexBeyondData)
}
