package storage

import (
	"fmt"
	"io"
	"os"
)

// The filesystem seam.
//
// Every byte the engine persists — WAL records, segment payloads, manifest
// replacements, probe files — moves through the FS interface below, so a
// test can interpose a deterministic fault injector (internal/faultfs) and
// script exactly which write fails with which error, while production runs
// on the operating system with zero indirection cost: *os.File satisfies
// File structurally (no wrapper object, no extra allocation — an interface
// holding a pointer), and osFS methods are thin one-line delegations the
// compiler sees through. The AllocsPerRun pin in the storage tests holds
// the seam to that bargain.

// File is the subset of *os.File the storage engine writes through.
type File interface {
	io.Writer
	io.WriterAt
	io.ReaderAt
	io.Closer
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
}

// FS abstracts the filesystem operations the engine performs against its
// data directory. The zero-cost production implementation is OsFS; tests
// substitute internal/faultfs to script failures per operation.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Open opens name read-only.
	Open(name string) (File, error)
	// ReadFile reads the whole of name.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists a directory.
	ReadDir(name string) ([]os.DirEntry, error)
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm os.FileMode) error
	// Stat stats a path.
	Stat(name string) (os.FileInfo, error)
	// Rename atomically replaces newpath with oldpath (same directory).
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// Truncate truncates the named file.
	Truncate(name string, size int64) error
	// Mmap maps length bytes of f read-only and shared (or reads them into
	// the heap on platforms without mmap); Munmap releases such a mapping.
	Mmap(f File, length int) ([]byte, error)
	Munmap(b []byte) error
	// SyncDir fsyncs a directory so a just-renamed entry survives power
	// loss. Best-effort on filesystems that refuse directory fsync.
	SyncDir(dir string) error
}

// OsFS is the production FS: direct delegation to the os package. Every
// method is a thin wrapper and OpenFile returns the *os.File itself (it
// satisfies File structurally), so the seam costs nothing on the hot path.
type OsFS struct{}

func (OsFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OsFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OsFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (OsFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (OsFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (OsFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }
func (OsFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OsFS) Remove(name string) error                     { return os.Remove(name) }
func (OsFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }

// Mmap requires the real *os.File underneath (the fd is what the kernel
// maps); an FS that wraps files must unwrap before delegating here.
func (OsFS) Mmap(f File, length int) ([]byte, error) {
	of, ok := f.(*os.File)
	if !ok {
		return nil, fmt.Errorf("storage: OsFS.Mmap needs an *os.File, got %T", f)
	}
	return mmapFile(of, length)
}

func (OsFS) Munmap(b []byte) error { return munmapFile(b) }

// SyncDir fsyncs dir. Best-effort on the sync itself: filesystems that
// refuse directory fsync (overlayfs in some CI containers) still performed
// the rename atomically, which is the property recovery depends on.
func (OsFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
