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
package faultfs

import (
	"io"
	"os"
	"path/filepath"
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
