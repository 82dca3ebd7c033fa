package ledger

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
)

// FS is the one filesystem seam the serving stack's durable state goes
// through: the ledger appends, truncates and reads through it, and
// every atomic file replace (model artifacts, the ledger's anchor
// sidecar) runs WriteFileAtomic over it. It is narrow enough for the
// fault injector (internal/faultinject.Fs) to interpose every
// durability-relevant call; production code uses OS.
type FS interface {
	// OpenAppend opens path for appending, creating it if absent.
	OpenAppend(path string) (File, error)
	// ReadFile returns the file's full contents.
	ReadFile(path string) ([]byte, error)
	// Truncate shortens the file at path to size bytes.
	Truncate(path string, size int64) error
	// CreateTemp creates a new temporary file in dir (os.CreateTemp
	// semantics); atomic writes stage their bytes here.
	CreateTemp(dir, pattern string) (File, error)
	// Rename moves a staged temp file over its destination.
	Rename(oldPath, newPath string) error
	// Link makes newPath a hard link to the file at oldPath (os.Link
	// semantics: it fails when newPath exists).
	Link(oldPath, newPath string) error
	// Remove deletes a file (cleanup of failed staging).
	Remove(path string) error
	// SyncDir fsyncs a directory, making a created or renamed entry
	// durable. Implementations may make this best effort: some
	// filesystems refuse directory fsync.
	SyncDir(dir string) error
}

// File is an open handle: enough surface to stream bytes, fsync, and
// close.
type File interface {
	io.Writer
	// Name reports the file's path (for the later Rename/Remove).
	Name() string
	// Sync flushes the file's bytes to stable storage.
	Sync() error
	Close() error
}

// osFS implements FS on the real filesystem.
type osFS struct{}

// OS is the production FS.
var OS FS = osFS{}

func (osFS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}

func (osFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

func (osFS) Link(oldPath, newPath string) error { return os.Link(oldPath, newPath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil // best effort; the file itself is already durable
	}
	_ = d.Sync()
	return d.Close()
}

// WriteFileAtomic replaces path with data: the bytes are staged in a
// temp file next to path and renamed over it, so a crash at any point
// leaves the old file or the new one, never a torn mix. When durable,
// the staged file is fsynced before the rename and the directory after
// it (best effort). Without durable neither fsync runs and a crash may
// keep the old file — the trade periodic anchors make, since the ledger
// bytes they point at are already durable.
func WriteFileAtomic(fsys FS, path string, data []byte, durable bool) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if err := stage(tmp, data, durable); err != nil {
		fsys.Remove(tmp.Name())
		return err
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		fsys.Remove(tmp.Name())
		return err
	}
	if durable {
		_ = fsys.SyncDir(dir)
	}
	return nil
}

// LinkFileAtomic publishes newPath as a second name for the file at
// oldPath, replacing whatever newPath named: the link is made under a
// staging name next to newPath and renamed over it, so newPath names
// its old file or oldPath's, never neither. The directory is fsynced
// afterwards (best effort). The bytes are written once: a caller that
// never rewrites oldPath in place (WriteFileAtomic always renames a
// new file over it) gets an immutable copy for the price of a link.
func LinkFileAtomic(fsys FS, oldPath, newPath string) error {
	dir := filepath.Dir(newPath)
	var rnd [8]byte
	_, _ = rand.Read(rnd[:])
	tmp := filepath.Join(dir, "."+filepath.Base(newPath)+".link"+hex.EncodeToString(rnd[:]))
	if err := fsys.Link(oldPath, tmp); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, newPath); err != nil {
		fsys.Remove(tmp)
		return err
	}
	_ = fsys.SyncDir(dir)
	return nil
}

// stage writes data into a staged file, fsyncs it when durable, and
// closes it.
func stage(f File, data []byte, durable bool) error {
	n, err := f.Write(data)
	if err == nil && n < len(data) {
		err = fmt.Errorf("ledger: short write: %d of %d bytes", n, len(data))
	}
	if err == nil && durable {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func dirOf(path string) string { return filepath.Dir(path) }

func isNotExist(err error) bool { return errors.Is(err, iofs.ErrNotExist) }
