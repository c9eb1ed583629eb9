package container

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// mapping is a sealed part's data file mapped read-only; only data is
// mapped, an index is read (Index). A handle that maps its data
// (MapData) maps each part's file on first use and shares the mapping
// among its queries until a finalizer unmaps it; a one-shot handle maps
// it for the one cursor that reads it, which unmaps it when it closes.
// The descriptor is closed right after mmap.
type mapping struct {
	data     []byte
	dev, ino uint64        // the file mapped: a path re-created since is another file
	path     string        // where measure asks for its length again
	size     atomic.Uint64 // the file's length as last measured, at most len(data): reads end here
	oneShot  bool          // Close unmaps
}

// pageSize is the granularity of a mapping: a file cut inside a page
// reads zeros to the page's end, a page wholly past the cut faults.
var pageSize = uint64(os.Getpagesize())

// MapData makes the container's topics keep one mapping per data file,
// and their index read once, for the handle's lifetime, shared by every
// query, instead of one per cursor: worth it for a handle that serves
// many queries. Sealed containers only.
func (c *Container) MapData() {
	for _, t := range c.topics {
		t.mapped = true
	}
}

// openFile opens the file at path read-only and returns its
// descriptor and fstat. It calls the system directly: an os.File would
// add a poller registration and a FileInfo to each of a one-shot scan's
// two reads of a part, its index and its data.
func openFile(path string) (int, syscall.Stat_t, error) {
	var st syscall.Stat_t
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return -1, st, &os.PathError{Op: "open", Path: path, Err: err}
	}
	if err := syscall.Fstat(fd, &st); err != nil {
		syscall.Close(fd)
		return -1, st, &os.PathError{Op: "stat", Path: path, Err: err}
	}
	return fd, st, nil
}

// mapFile maps the data file at path whole; nil without an error means
// mmap refused it (an empty file, the map-count limit), so read the
// file.
func mapFile(path string, oneShot bool) (*mapping, error) {
	fd, st, err := openFile(path)
	if err != nil {
		return nil, err
	}
	defer syscall.Close(fd)
	data, err := syscall.Mmap(fd, 0, int(st.Size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil
	}
	m := &mapping{data: data, dev: uint64(st.Dev), ino: st.Ino, path: path, oneShot: oneShot}
	m.size.Store(uint64(len(data)))
	runtime.SetFinalizer(m, (*mapping).unmap)
	return m, nil
}

// mapData returns a mapping of the topic's data for one reader: the
// handle's, made on first use and re-measured (one stat) so that a part
// cut between queries is read to its new end, or a fresh one. Nil means
// read the plain file.
func (t *Topic) mapData() *mapping {
	path := filepath.Join(t.dir, DataFileName)
	if !t.mapped {
		m, _ := mapFile(path, true)
		return m
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if m := t.mapping; m != nil {
		m.measure()
		return m
	}
	t.mapping, _ = mapFile(path, false)
	return t.mapping
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

// Close unmaps a one-shot mapping; a shared one is its finalizer's.
func (m *mapping) Close() error {
	if m.oneShot {
		m.unmap()
	}
	return nil
}

func (m *mapping) unmap() {
	if m.data != nil {
		syscall.Munmap(m.data)
		m.data = nil
	}
}

func (m *mapping) length(uint64) uint64 { return m.size.Load() }

// lastPage is the offset of the page that holds the file's last byte as
// last measured.
func (m *mapping) lastPage() uint64 { return (max(m.size.Load(), 1) - 1) &^ (pageSize - 1) }

// measure asks the file's length again (one stat) and reads to it from
// now on; a path removed or re-created leaves the mapped file as it was.
func (m *mapping) measure() uint64 {
	var st syscall.Stat_t
	if syscall.Stat(m.path, &st) == nil && uint64(st.Dev) == m.dev && st.Ino == m.ino {
		m.size.Store(min(uint64(st.Size), uint64(len(m.data))))
	}
	return m.size.Load()
}

// readTail is ReadExtentInto for a run that reaches the mapping's last
// page: copied into *scratch, then the file measured again, so what it
// hands out is the part's data — not zeros a cut left in the page — and
// no later cut changes it. Entries past a cut are dropped as a short
// read drops them.
func (t *Topic) readTail(m *mapping, sel IndexView, size uint64, scratch *[]byte) ([]byte, int, error) {
	data, k, err := t.readExtent(m, sel, size, scratch)
	if err != nil {
		return nil, 0, err
	}
	if k = whole(sel, k, m.measure()); k == 0 {
		_, err = t.bound(m, sel.At(0))
		return nil, 0, err
	}
	return data, k, nil
}

// Guard is what a cursor checks before it hands out each message of a
// run: that the part still holds the run. Only a slice of a mapping
// needs it. A cut inside a page reads zeros to that page's end rather
// than faulting, but a page wholly past the cut faults, and a sliced
// run ends at or before the start of the file's last page (readTail
// copies any that reaches into it). So the guard is a word of that
// page: any cut below the run lies below it and makes Check fault, and
// the caller, which runs with memory faults raised as panics
// (runtime/debug.SetPanicOnFault), makes the fault the part's
// ErrIndexBeyondData (Fault). One page stays resident however much is
// read, and no check asks the file system anything. A Guard points into
// the mapping, not at it: holding one keeps no mapping reachable.
type Guard struct{ probe *uint32 }

// Guard returns the guard of data, a run ReadExtentInto read through r:
// the zero Guard, which checks nothing, for every reader but a mapping
// and for a mapping's copies.
func (t *Topic) Guard(r DataReader, data []byte) Guard {
	m, ok := r.(*mapping)
	if _, in := m.offset(uintptr(unsafe.Pointer(unsafe.SliceData(data)))); !ok || !in {
		return Guard{}
	}
	return m.guard()
}

// guard is a Guard on a word of the mapping's last page.
func (m *mapping) guard() Guard { return Guard{(*uint32)(unsafe.Pointer(&m.data[m.lastPage()]))} }

// Pinned returns the Guard of data when it lies in the topic's shared
// mapping (MapData), and the zero Guard otherwise: such a slice stays
// mapped while the handle is held, past the cursor that read it, where
// a one-shot handle's is unmapped when that cursor closes. Any slice of
// it is guarded by its last page, since readTail copies every run that
// reaches into that page.
func (t *Topic) Pinned(data []byte) Guard {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.Guard(t.mapping, data)
}

// Check faults if the guarded run's part was cut below it.
func (g Guard) Check() {
	if g.probe != nil {
		atomic.LoadUint32(g.probe)
	}
}

// offset reports whether addr lies inside the mapping, and where; no
// address lies inside a nil one.
func (m *mapping) offset(addr uintptr) (uintptr, bool) {
	if m == nil {
		return 0, false
	}
	off := addr - uintptr(unsafe.Pointer(unsafe.SliceData(m.data)))
	return off, off < uintptr(len(m.data)) // below the mapping, off wraps around
}

// Fault turns p, a panic's value out of code reading the topic through
// r, into the error it stands for: a memory fault (a panic only under
// runtime/debug.SetPanicOnFault) inside r's mapping is the part cut
// under it, the topic's ErrIndexBeyondData. Anything else is nil, for
// the caller to re-panic.
func (t *Topic) Fault(r DataReader, p any) error {
	f, ok := p.(interface{ Addr() uintptr })
	if !ok {
		return nil
	}
	m, _ := r.(*mapping)
	if off, in := m.offset(f.Addr()); in {
		return fmt.Errorf("container: topic %q: data cut under a mapped read (fault at offset %d): %w", t.topic, off, ErrIndexBeyondData)
	}
	return nil
}
