// Package nfs is the file-system adaptation layer: it translates the
// open/read/write/close operations of off-the-shelf applications into
// Placeless I/O operations, the role the NFS server layer plays in the
// paper's Figure 2 ("Read and write operations from off-the-shelf
// applications are translated into Placeless I/O operations by a NFS
// server layer").
//
// A FileSystem is mounted per user — exactly the per-user view a
// document reference provides — and can optionally route reads and
// writes through a content cache, modeling the application-level
// cache placement the paper measures in Table 1.
package nfs

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"placeless/internal/core"
	"placeless/internal/docspace"
)

// Well-known errors.
var (
	// ErrClosed is returned for operations on a closed file.
	ErrClosed = errors.New("nfs: file closed")
	// ErrReadOnly is returned when writing a file opened for reading.
	ErrReadOnly = errors.New("nfs: file opened read-only")
	// ErrWriteOnly is returned when reading a file opened for writing.
	ErrWriteOnly = errors.New("nfs: file opened write-only")
)

// FileSystem is one user's file-style view of a document space.
type FileSystem struct {
	space *docspace.Space
	cache *core.Cache // nil = uncached
	user  string
}

// Mount returns a FileSystem for user over space, reading and writing
// directly through the middleware.
func Mount(space *docspace.Space, user string) *FileSystem {
	return &FileSystem{space: space, user: user}
}

// MountCached returns a FileSystem whose reads and writes go through
// the given content cache.
func MountCached(cache *core.Cache, space *docspace.Space, user string) *FileSystem {
	return &FileSystem{space: space, cache: cache, user: user}
}

// User returns the mounting user.
func (fs *FileSystem) User() string { return fs.user }

// List returns the document ids visible to this user (those the user
// holds a reference to), sorted.
func (fs *FileSystem) List() []string {
	var out []string
	for _, doc := range fs.space.Documents() {
		if _, err := fs.space.Reference(doc, fs.user); err == nil {
			out = append(out, doc)
		}
	}
	sort.Strings(out)
	return out
}

// Stat returns the size of the document's content as this user sees
// it. Because active properties transform content per user, size is a
// property of the transformed view, so Stat performs a (cacheable)
// read.
func (fs *FileSystem) Stat(doc string) (int64, error) {
	data, err := fs.readAll(doc)
	if err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// readAll fetches the user's view of the document.
func (fs *FileSystem) readAll(doc string) ([]byte, error) {
	if fs.cache != nil {
		return fs.cache.Read(doc, fs.user)
	}
	data, _, err := fs.space.ReadDocument(doc, fs.user)
	return data, err
}

// writeAll stores new content.
func (fs *FileSystem) writeAll(doc string, data []byte) error {
	if fs.cache != nil {
		return fs.cache.Write(doc, fs.user, data)
	}
	return fs.space.WriteDocument(doc, fs.user, data)
}

// ReadFile returns the complete content of doc as seen by the user.
// Through a cache the bytes are the cache's own and read-only
// (core.Cache.Read); File.Read copies into the caller's buffer instead.
func (fs *FileSystem) ReadFile(doc string) ([]byte, error) {
	return fs.readAll(doc)
}

// WriteFile replaces the content of doc through the write path.
func (fs *FileSystem) WriteFile(doc string, data []byte) error {
	return fs.writeAll(doc, data)
}

// mode distinguishes file handles.
type mode int

const (
	modeRead mode = iota
	modeWrite
)

// File is an open file handle with POSIX-style offset semantics.
type File struct {
	fs   *FileSystem
	doc  string
	mode mode

	mu     sync.Mutex
	data   []byte // read snapshot or write buffer
	offset int64
	closed bool
	werr   error
}

// Open opens doc for reading. The user's transformed view is
// snapshotted at open time, matching stream semantics: a reader sees
// the content as of its getInputStream.
func (fs *FileSystem) Open(doc string) (*File, error) {
	data, err := fs.readAll(doc)
	if err != nil {
		return nil, err
	}
	return &File{fs: fs, doc: doc, mode: modeRead, data: data}, nil
}

// Create opens doc for writing. Writes are buffered and pushed through
// the Placeless write path when the file is closed (the
// getOutputStream/Close pairing).
func (fs *FileSystem) Create(doc string) (*File, error) {
	if _, err := fs.space.ResolveOwner(doc, fs.user); err != nil {
		return nil, err
	}
	return &File{fs: fs, doc: doc, mode: modeWrite}, nil
}

// Name returns the document id.
func (f *File) Name() string { return f.doc }

// Read implements io.Reader.
func (f *File) Read(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrClosed
	}
	if f.mode != modeRead {
		return 0, ErrWriteOnly
	}
	if f.offset >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[f.offset:])
	f.offset += int64(n)
	return n, nil
}

// ReadAt implements io.ReaderAt.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrClosed
	}
	if f.mode != modeRead {
		return 0, ErrWriteOnly
	}
	if off < 0 {
		return 0, fmt.Errorf("nfs: negative offset %d", off)
	}
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Write implements io.Writer.
func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrClosed
	}
	if f.mode != modeWrite {
		return 0, ErrReadOnly
	}
	f.data = append(f.data, p...)
	return len(p), nil
}

// Seek implements io.Seeker for read handles.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrClosed
	}
	if f.mode != modeRead {
		return 0, errors.New("nfs: seek on write handle")
	}
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.offset
	case io.SeekEnd:
		base = int64(len(f.data))
	default:
		return 0, fmt.Errorf("nfs: bad whence %d", whence)
	}
	pos := base + offset
	if pos < 0 {
		return 0, errors.New("nfs: negative position")
	}
	f.offset = pos
	return pos, nil
}

// Size returns the handle's content length (snapshot for reads,
// buffered bytes for writes).
func (f *File) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.data))
}

// Close releases the handle; for write handles it pushes the buffered
// content through the Placeless write path and reports any store
// error. Closing twice returns the first result.
func (f *File) Close() error {
	f.mu.Lock()
	if f.closed {
		err := f.werr
		f.mu.Unlock()
		return err
	}
	f.closed = true
	isWrite := f.mode == modeWrite
	data := f.data
	f.mu.Unlock()
	if !isWrite {
		return nil
	}
	err := f.fs.writeAll(f.doc, data)
	f.mu.Lock()
	f.werr = err
	f.mu.Unlock()
	return err
}
