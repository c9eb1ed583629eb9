// Package faultfs abstracts the file-system mutations BORA's write
// paths perform (container building, index persistence, front-end
// spooling) behind a small Backend interface, so tests can interpose a
// deterministic fault injector where production code talks to the OS.
//
// The containers BORA builds are meant to be the durable artifact a
// robotic pipeline reads forever after a single duplication pass; a
// crash or I/O error mid-organize must therefore leave damage that is
// detectable (container.Fsck) and repairable (container.RepairFS), never
// silently wrong. faultfs provides the machinery to prove that: every
// write-path syscall runs through a Backend, and the Injector backend
// can fail the Nth operation, tear a write short, or freeze the
// directory tree at an operation boundary as a post-crash snapshot.
//
// Durability is explicit. A writer makes files durable with one barrier,
// SyncAll, which fsyncs a whole set of files and directories at once,
// and makes a rename durable with SyncDir of the directory it landed in.
// A barrier is issued and awaited in two steps: SyncAll starts the
// fsyncs and returns their wait, so a writer can go on with other files
// while the device flushes. A container is built in two phases on these:
// its files are written in place with no sync, then one SyncAll makes
// them all durable before the meta's rename commits the container and a
// SyncDir makes the commit durable (container.CommitFS, which returns
// the finish — the wait, the rename and the SyncDir — to run later).
package faultfs

import (
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// File is the writable-file surface the write paths need. Sync is an
// explicit member so durability points are visible to (and controllable
// by) a fault schedule.
type File interface {
	io.Writer
	io.Closer
	Sync() error
	Name() string
}

// Backend is the set of mutating file-system operations BORA performs
// while building containers and spooling front-end writes. Read paths
// deliberately stay on the plain os package: fault injection targets
// the durability story, and post-crash state is inspected directly.
type Backend interface {
	MkdirAll(path string, perm os.FileMode) error
	Create(path string) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	Truncate(path string, size int64) error
	// SyncAll issues a barrier over every named file and directory and
	// returns its wait, which returns once all are durable, or with the
	// first error. The barrier is one operation at the call, wherever
	// the wait runs; the files must not be written between the two.
	SyncAll(paths []string) (wait func() error)
	// SyncDir fsyncs a directory, making the entries created in it and
	// the renames into it durable.
	SyncDir(path string) error
}

// OS is the pass-through production backend.
var OS Backend = osFS{}

type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) Create(path string) (File, error) { return os.Create(path) }

func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

func (osFS) SyncDir(path string) error { return syncPath(path) }

// syncers bounds the goroutines one SyncAll runs, each blocked in an
// fsync on a thread of its own: enough to overlap every topic of the
// benchmark's 7-topic bag, while a bag of hundreds of topics does not
// park hundreds of threads on one device.
const syncers = 16

// SyncAll starts syncing the paths in groups, one per directory they
// name — a topic's files and the topic directory form one — each group
// in the order given, up to syncers groups at once, and returns the
// wait that joins them. The fsyncs of different directories overlap, so
// a barrier over many topics costs about one round of device flushes
// rather than one per file.
func (osFS) SyncAll(paths []string) func() error {
	named := make(map[string]bool, len(paths))
	for _, p := range paths {
		named[filepath.Dir(p)] = true
	}
	groups := map[string][]string{}
	var dirs []string
	for _, p := range paths {
		dir := filepath.Dir(p)
		if named[p] {
			dir = p // a directory joins its own files' group
		}
		if _, ok := groups[dir]; !ok {
			dirs = append(dirs, dir)
		}
		groups[dir] = append(groups[dir], p)
	}
	errs := make([]error, len(dirs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(len(dirs), syncers); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(dirs); i = int(next.Add(1) - 1) {
				for _, p := range groups[dirs[i]] {
					if errs[i] = syncPath(p); errs[i] != nil {
						break
					}
				}
			}
		}()
	}
	return func() error {
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// syncPath opens a file or directory read-only and fsyncs it.
func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// TempPattern is the CreateTemp pattern prefix WriteFileAtomic uses;
// fsck recognizes (and repair removes) debris matching it after a
// crash mid-rename.
const TempPattern = ".tmp-"

// IsTempDebris reports whether a file name looks like an abandoned
// WriteFileAtomic temporary.
func IsTempDebris(name string) bool {
	for i := 0; i+len(TempPattern) <= len(name); i++ {
		if name[i:i+len(TempPattern)] == TempPattern {
			return true
		}
	}
	return false
}

// WriteFileAtomic writes data to path via a unique temporary file in
// the same directory followed by a rename, so a crash at any operation
// boundary leaves either the old content, no file, or identifiable
// temp debris — never a torn final file.
func WriteFileAtomic(fs Backend, path string, data []byte, perm os.FileMode) error {
	dir, base := filepath.Dir(path), filepath.Base(path)
	tmp, err := fs.CreateTemp(dir, base+TempPattern+"*")
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		tmp.Close()
		fs.Remove(tmp.Name())
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		fs.Remove(tmp.Name())
		return err
	}
	if err := fs.Rename(tmp.Name(), path); err != nil {
		fs.Remove(tmp.Name())
		return err
	}
	// Permission bits are whatever CreateTemp chose (0600); widen via the
	// real chmod — metadata only, not part of the fault surface.
	if perm != 0 {
		os.Chmod(path, perm)
	}
	return nil
}

// Or returns fs, or OS when fs is nil, so option structs can leave the
// backend unset.
func Or(fs Backend) Backend {
	if fs == nil {
		return OS
	}
	return fs
}
