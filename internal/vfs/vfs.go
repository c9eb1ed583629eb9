// Package vfs is BORA's FUSE-like front end (Fig 5a): it presents the
// traditional "bag is a file" abstraction over containers so that tools
// with no knowledge of BORA keep working. Writing <name>.bag through the
// front end captures the byte stream and re-organizes it into a
// container when the file is closed (the interception of Fig 6 step 1);
// opening <name>.bag reconstructs the standard bag byte stream from the
// container, so stock readers — including internal/rosbag — can parse
// it.
//
// Every front-end call passes through an interposition layer that counts
// operations and can charge a per-op overhead, modeling the FUSE 2.9
// user/kernel crossings the paper accepts as "some one-time overhead".
package vfs

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/obs"
	"repro/internal/rosbag"
)

// OpStats counts front-end operations, the quantity a FUSE layer would
// translate into user/kernel crossings.
type OpStats struct {
	Creates  int
	Opens    int
	Reads    int
	Writes   int
	Closes   int
	Stats    int
	Readdirs int
	Removes  int
}

// fsObs holds the per-op latency instruments behind OpStats. All fields
// are nil (no-op) when the backend carries no obs registry.
type fsObs struct {
	create, open, read, write, close *obs.Op
	stat, readdir, remove            *obs.Op
}

// FS is a mounted BORA front end.
type FS struct {
	mu      sync.Mutex
	backend *core.BORA
	workDir string // spool area for in-flight writes and read snapshots
	stats   OpStats
	obs     fsObs
}

// Mount attaches a front end to a BORA back end, spooling through
// workDir (a temporary directory works). Per-op latency is recorded to
// the backend's obs registry (see core.Options.Obs) under vfs.* ops.
func Mount(backend *core.BORA, workDir string) (*FS, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, fmt.Errorf("vfs: spool dir: %w", err)
	}
	reg := backend.Obs()
	return &FS{backend: backend, workDir: workDir, obs: fsObs{
		create:  reg.Op("vfs.create"),
		open:    reg.Op("vfs.open"),
		read:    reg.Op("vfs.read"),
		write:   reg.Op("vfs.write"),
		close:   reg.Op("vfs.close"),
		stat:    reg.Op("vfs.stat"),
		readdir: reg.Op("vfs.readdir"),
		remove:  reg.Op("vfs.remove"),
	}}, nil
}

// Stats returns the accumulated op counts.
func (fs *FS) Stats() OpStats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.stats
}

// bagName validates and strips the .bag extension.
func bagName(name string) (string, error) {
	if !strings.HasSuffix(name, ".bag") {
		return "", fmt.Errorf("vfs: %q: front end only serves .bag files", name)
	}
	base := strings.TrimSuffix(filepath.Base(name), ".bag")
	if base == "" || strings.ContainsAny(base, "/\\") {
		return "", fmt.Errorf("vfs: invalid bag name %q", name)
	}
	return base, nil
}

// List returns the bag file names visible on the front end.
func (fs *FS) List() ([]string, error) {
	sp := fs.obs.readdir.Start()
	defer sp.End()
	fs.mu.Lock()
	fs.stats.Readdirs++
	fs.mu.Unlock()
	names, err := fs.backend.List()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = n + ".bag"
	}
	sort.Strings(out)
	return out, nil
}

// Stat reports whether a bag exists and its logical size (the size of
// the reconstructed bag stream is not materialized; Stat reports the
// container's payload size, which is what analysis tools care about).
func (fs *FS) Stat(name string) (int64, error) {
	sp := fs.obs.stat.Start()
	defer sp.End()
	fs.mu.Lock()
	fs.stats.Stats++
	fs.mu.Unlock()
	base, err := bagName(name)
	if err != nil {
		return 0, err
	}
	bag, err := fs.backend.OpenSpan(base, sp)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, topic := range bag.Topics() {
		t, err := bag.Container().Topic(topic)
		if err != nil {
			return 0, err
		}
		sz, err := t.DataSize()
		if err != nil {
			return 0, err
		}
		total += sz
	}
	return total, nil
}

// WriteFile is an in-flight front-end write: bytes spool to the work
// directory and are organized into a container on Close. The spool is
// written through the backend's faultfs backend, so an injected fault
// or crash surfaces exactly where a real disk error would.
type WriteFile struct {
	fs     *FS
	base   string
	spool  faultfs.File
	path   string
	closed bool
}

// Create starts writing a bag through the front end. Each in-flight
// write spools to its own unique temporary file, so concurrent Creates
// of the same bag name cannot truncate each other's spool; the conflict
// is detected at Close time, when the back end refuses a second
// container of the same name.
func (fs *FS) Create(name string) (*WriteFile, error) {
	sp := fs.obs.create.Start()
	defer sp.End()
	fs.mu.Lock()
	fs.stats.Creates++
	fs.mu.Unlock()
	base, err := bagName(name)
	if err != nil {
		return nil, err
	}
	f, err := fs.backend.FS().CreateTemp(fs.workDir, "spool-"+base+"-*.bag")
	if err != nil {
		return nil, err
	}
	return &WriteFile{fs: fs, base: base, spool: f, path: f.Name()}, nil
}

// Write implements io.Writer.
func (w *WriteFile) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("vfs: write after close")
	}
	sp := w.fs.obs.write.Start()
	w.fs.mu.Lock()
	w.fs.stats.Writes++
	w.fs.mu.Unlock()
	n, err := w.spool.Write(p)
	sp.EndBytes(int64(n))
	return n, err
}

// Close finishes the write: the spooled bag is duplicated into a BORA
// container (the one-time data organizer pass) and the spool removed.
func (w *WriteFile) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	sp := w.fs.obs.close.Start()
	defer sp.End()
	w.fs.mu.Lock()
	w.fs.stats.Closes++
	w.fs.mu.Unlock()
	// Unlink the spool no matter how Close exits: an error from the
	// spool close below must not leak the file.
	defer os.Remove(w.path)
	if err := w.spool.Close(); err != nil {
		return err
	}
	src, err := os.Open(w.path)
	if err != nil {
		return err
	}
	defer src.Close()
	st, err := src.Stat()
	if err != nil {
		return err
	}
	if _, _, err := w.fs.backend.DuplicateFrom(src, st.Size(), w.base, sp); err != nil {
		return fmt.Errorf("vfs: organize %s: %w", w.base, err)
	}
	return nil
}

// ReadFile serves the reconstructed bag byte stream.
type ReadFile struct {
	fs     *FS
	f      *os.File
	size   int64
	closed bool
}

// Open serves a logical bag file for reading. The bag stream is
// reconstructed from the container into a snapshot once per Open; stock
// bag readers can then parse it unchanged. Each Open materializes its
// own unique snapshot file, so concurrent Opens of the same bag never
// truncate each other's stream and each Close unlinks only its own
// snapshot.
func (fs *FS) Open(name string) (*ReadFile, error) {
	sp := fs.obs.open.Start()
	fs.mu.Lock()
	fs.stats.Opens++
	fs.mu.Unlock()
	base, err := bagName(name)
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	bag, err := fs.backend.OpenSpan(base, sp)
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	f, err := os.CreateTemp(fs.workDir, "snap-"+base+"-*.bag")
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	fail := func(err error) (*ReadFile, error) {
		f.Close()
		os.Remove(f.Name())
		sp.EndErr(err)
		return nil, err
	}
	if err := bag.ExportSpan(f, rosbag.WriterOptions{}, sp); err != nil {
		return fail(fmt.Errorf("vfs: reconstruct %s: %w", base, err))
	}
	st, err := f.Stat()
	if err != nil {
		return fail(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fail(err)
	}
	sp.EndBytes(st.Size())
	return &ReadFile{fs: fs, f: f, size: st.Size()}, nil
}

// Size returns the reconstructed bag's byte size.
func (r *ReadFile) Size() int64 { return r.size }

// Read implements io.Reader.
func (r *ReadFile) Read(p []byte) (int, error) {
	if r.closed {
		return 0, fmt.Errorf("vfs: read after close")
	}
	sp := r.fs.obs.read.Start()
	r.fs.mu.Lock()
	r.fs.stats.Reads++
	r.fs.mu.Unlock()
	n, err := r.f.Read(p)
	sp.EndBytes(int64(n))
	return n, err
}

// ReadAt implements io.ReaderAt.
func (r *ReadFile) ReadAt(p []byte, off int64) (int, error) {
	if r.closed {
		return 0, fmt.Errorf("vfs: read after close")
	}
	sp := r.fs.obs.read.Start()
	r.fs.mu.Lock()
	r.fs.stats.Reads++
	r.fs.mu.Unlock()
	n, err := r.f.ReadAt(p, off)
	sp.EndBytes(int64(n))
	return n, err
}

// Close releases the snapshot.
func (r *ReadFile) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	sp := r.fs.obs.close.Start()
	defer sp.End()
	r.fs.mu.Lock()
	r.fs.stats.Closes++
	r.fs.mu.Unlock()
	path := r.f.Name()
	if err := r.f.Close(); err != nil {
		return err
	}
	return os.Remove(path)
}

// Remove deletes a bag through the front end.
func (fs *FS) Remove(name string) error {
	sp := fs.obs.remove.Start()
	fs.mu.Lock()
	fs.stats.Removes++
	fs.mu.Unlock()
	base, err := bagName(name)
	if err != nil {
		sp.EndErr(err)
		return err
	}
	err = fs.backend.Remove(base)
	sp.EndErr(err)
	return err
}
