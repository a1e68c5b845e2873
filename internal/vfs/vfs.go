// Package vfs is the filesystem contract the store performs all its I/O
// through, and its one production implementation, OSFS. Its subpackage
// vfstest holds the in-memory crash-model filesystem the tests use.
package vfs

import (
	"io"
	"os"
)

// FS is the narrow filesystem surface the store performs ALL its I/O
// through. Production code uses OSFS; tests swap in vfstest.MemFS to
// inject short writes, fsync failures and crash-at-every-syscall
// without touching a real disk. The methods mirror the POSIX
// durability model the store's protocols are written against: file
// contents become crash-durable only on File.Sync, and namespace
// operations (Create/Rename/Remove) become crash-durable only on
// SyncDir of the parent directory.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// ReadDir lists dir's entries.
	ReadDir(dir string) ([]DirEnt, error)
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// Open opens name read-only.
	Open(name string) (File, error)
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	// Rename atomically replaces newname with oldname's file.
	Rename(oldname, newname string) error
	// Remove deletes a file.
	Remove(name string) error
	// Truncate shrinks name to size bytes (the WAL torn-tail repair).
	Truncate(name string, size int64) error
	// SyncDir fsyncs a directory, making its namespace ops durable.
	SyncDir(dir string) error
	// ReadAt reads len(p) bytes of name starting at off — the random-
	// access read the out-of-core buffer pool faults segment-column
	// chunks in with (everything else in the store reads sequentially).
	// Like io.ReaderAt it returns a non-nil error when fewer than len(p)
	// bytes are available.
	ReadAt(name string, off int64, p []byte) (int, error)
}

// DirEnt is one directory entry.
type DirEnt struct {
	Name string
	Dir  bool
}

// File is the store's handle abstraction: sequential and positioned
// reads, appending writes, fsync, close. The store never seeks or
// overwrites in place — every on-disk structure is append-only or
// whole-file-replaced — so the interface stays small enough to
// fault-inject exhaustively. A handle keeps reading its file after the
// name is removed (POSIX unlink semantics): retention relies on that to
// leave a dropped segment readable to the versions that still hold it.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Closer
	Sync() error
}

// OSFS is the production FS over the real filesystem.
type OSFS struct{}

func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (OSFS) ReadDir(dir string) ([]DirEnt, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make([]DirEnt, len(ents))
	for i, e := range ents {
		out[i] = DirEnt{Name: e.Name(), Dir: e.IsDir()}
	}
	return out, nil
}

func (OSFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (OSFS) Open(name string) (File, error) { return os.Open(name) }

func (OSFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

func (OSFS) Remove(name string) error { return os.Remove(name) }

func (OSFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (OSFS) ReadAt(name string, off int64, p []byte) (int, error) {
	f, err := os.Open(name)
	if err != nil {
		return 0, err
	}
	n, err := f.ReadAt(p, off)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
