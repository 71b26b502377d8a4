package repo

import (
	"errors"
	"hash/maphash"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"placeless/internal/clock"
	"placeless/internal/simnet"
)

// FS is a repository backed by a directory on the real file system —
// the substrate behind the paper's NFS bit-provider. Applications (or
// tests) can modify files directly through the OS, outside Placeless
// control, and only an mtime-polling verifier will notice.
//
// Version numbers are synthesized from observed mtime transitions,
// since a plain file system does not version content.
//
// Store overwrites a document's file in place. It neither truncates
// first nor renames a temporary over it: either one frees the file's
// blocks through the journal and the write allocates them again, which
// on a discard-mounted ext4 was 6 ms of a 7 ms write. A Fetch racing an
// in-place Store could therefore see part old, part new. The
// stripes below order the two: a read through the repository returns
// the old document or the new one, never a torn one. Out-of-band
// editors take no lock and get no such promise. Nothing is fsynced and
// a crash mid-Store can leave a mix of both bodies in the file.
type FS struct {
	base
	root string

	// stripes serializes Store (exclusive) against Fetch (shared) per
	// path, picked by hashing the resolved path; Stat takes none.
	stripes [fsStripes]sync.RWMutex
	seed    maphash.Seed

	// afterStat, when set by a test, runs inside Fetch between the
	// fstat and the read.
	afterStat func()

	mu       sync.Mutex
	versions map[string]int64
	lastMod  map[string]int64 // unix-nano mtime at last version bump
}

var _ Repository = (*FS)(nil)

// fsStripes is the number of path locks. Two paths sharing one only
// wait for each other's file I/O, so it needs to exceed the number of
// concurrent writers, not the number of documents.
const fsStripes = 64

// NewFS returns a repository rooted at dir, which must exist.
func NewFS(name string, clk clock.Clock, path *simnet.Path, dir string) (*FS, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return nil, errors.New("repo: fs root is not a directory")
	}
	return &FS{
		base:     base{name: name, clk: clk, path: path},
		root:     dir,
		seed:     maphash.MakeSeed(),
		versions: make(map[string]int64),
		lastMod:  make(map[string]int64),
	}, nil
}

// resolve maps a repository path to a file under root, rejecting
// escapes.
func (f *FS) resolve(path string) (string, error) {
	clean := filepath.Clean("/" + path)
	full := filepath.Join(f.root, clean)
	if !strings.HasPrefix(full, filepath.Clean(f.root)+string(os.PathSeparator)) && full != filepath.Clean(f.root) {
		return "", errors.New("repo: path escapes repository root")
	}
	return full, nil
}

// stripe returns the lock for a resolved path.
func (f *FS) stripe(full string) *sync.RWMutex {
	return &f.stripes[maphash.String(f.seed, full)%fsStripes]
}

// bumpVersion advances the synthetic version if the mtime moved.
func (f *FS) bumpVersion(path string, mtimeNano int64) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.lastMod[path] != mtimeNano {
		f.lastMod[path] = mtimeNano
		f.versions[path]++
	}
	if f.versions[path] == 0 {
		f.versions[path] = 1
		f.lastMod[path] = mtimeNano
	}
	return f.versions[path]
}

// Fetch implements Repository.
func (f *FS) Fetch(path string) (*FetchResult, error) {
	full, err := f.resolve(path)
	if err != nil {
		return nil, err
	}
	mu := f.stripe(full)
	mu.RLock()
	data, info, err := f.readFile(full)
	mu.RUnlock()
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, notFound(f.name, path)
		}
		return nil, err
	}
	cost := f.charge(int64(len(data)))
	return &FetchResult{
		Data: data,
		Meta: Meta{
			Size:    int64(len(data)),
			ModTime: info.ModTime(),
			Version: f.bumpVersion(path, info.ModTime().UnixNano()),
		},
		Cost: cost,
	}, nil
}

// readFile returns a file's bytes and the metadata it had before the
// first of them was read. The order matters: the mtime goes into the
// MTimeVerifier that vouches for these bytes, so an out-of-band edit
// racing the read must leave the entry looking older than its bytes
// (the next verify fails and refetches), never newer (old bytes under
// the new mtime would verify forever).
func (f *FS) readFile(full string) ([]byte, fs.FileInfo, error) {
	fh, err := os.Open(full)
	if err != nil {
		return nil, nil, err
	}
	defer fh.Close()
	info, err := fh.Stat()
	if err != nil {
		return nil, nil, err
	}
	if f.afterStat != nil {
		f.afterStat()
	}
	// A file that an out-of-band edit resized since the fstat comes
	// back cut to the shorter of the two lengths, under the older mtime.
	data := make([]byte, info.Size())
	n, err := io.ReadFull(fh, data)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, nil, err
	}
	return data[:n], info, nil
}

// Store implements Repository.
func (f *FS) Store(path string, data []byte) error {
	full, err := f.resolve(path)
	if err != nil {
		return err
	}
	f.charge(int64(len(data)))
	mu := f.stripe(full)
	mu.Lock()
	defer mu.Unlock()
	fh, err := os.OpenFile(full, os.O_WRONLY, 0)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return err
		}
		fh, err = os.OpenFile(full, os.O_WRONLY|os.O_CREATE, 0o644)
	}
	if err != nil {
		return err
	}
	err = overwrite(fh, data)
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	return err
}

// overwrite makes data the whole content of fh, cutting the file only
// when it was longer: a same-size rewrite frees and allocates nothing.
func overwrite(fh *os.File, data []byte) error {
	info, err := fh.Stat()
	if err != nil {
		return err
	}
	if _, err := fh.WriteAt(data, 0); err != nil {
		return err
	}
	if info.Size() > int64(len(data)) {
		return fh.Truncate(int64(len(data)))
	}
	return nil
}

// Stat implements Repository.
func (f *FS) Stat(path string) (Meta, error) {
	full, err := f.resolve(path)
	if err != nil {
		return Meta{}, err
	}
	f.chargeStat()
	info, err := os.Stat(full)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return Meta{}, notFound(f.name, path)
		}
		return Meta{}, err
	}
	return Meta{
		Size:    info.Size(),
		ModTime: info.ModTime(),
		Version: f.bumpVersion(path, info.ModTime().UnixNano()),
	}, nil
}
