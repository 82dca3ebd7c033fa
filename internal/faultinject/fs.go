package faultinject

import (
	"fmt"

	"bglpred/internal/ledger"
)

// Fs is ledger.FS middleware that injects filesystem faults into every
// durable write and read: model artifacts, and the audit ledger (the
// checkpoints in it) with its anchor sidecar. Failed or short writes
// (FsWrite) and fsync errors (FsSync) hit every handle it opens —
// staged temp files and the ledger's append handle alike; FsRename
// fails commit renames, FsLink the hard links versioned model copies
// are published by, FsTruncate the ledger's rollback truncate (the
// path that poisons it), FsRead whole-file reads, and FsCorrupt
// mutates read bytes instead (truncation or a bit flip in the final
// byte, the two shapes readers must catch).
//
// Wrap the real filesystem with NewFs(inj, ledger.OS) and hand the
// result to the FS-taking entry points (ledger.Config.FS,
// lifecycle.RetrainerConfig.FS, ...).
type Fs struct {
	inj  *Injector
	base ledger.FS
}

// NewFs wraps base (nil = ledger.OS) with inj's filesystem fault
// points. A nil injector yields a pure passthrough.
func NewFs(inj *Injector, base ledger.FS) *Fs {
	if base == nil {
		base = ledger.OS
	}
	return &Fs{inj: inj, base: base}
}

// OpenAppend opens an append handle whose Write and Sync are fault
// points.
func (f *Fs) OpenAppend(path string) (ledger.File, error) {
	return f.wrap(f.base.OpenAppend(path))
}

// ReadFile reads through the base FS, then applies FsRead (failed
// read) and FsCorrupt (mutated bytes) faults.
func (f *Fs) ReadFile(name string) ([]byte, error) {
	if err := f.inj.Fire(FsRead); err != nil {
		return nil, err
	}
	data, err := f.base.ReadFile(name)
	if err != nil {
		return nil, err
	}
	if fire, plan := f.inj.check(FsCorrupt); fire {
		data = corrupt(data, plan.Corrupt)
	}
	return data, nil
}

// corrupt returns a mutated copy of data (the original belongs to the
// caller's cache, never scribble on it).
func corrupt(data []byte, mode CorruptMode) []byte {
	switch mode {
	case Truncate:
		return append([]byte(nil), data[:len(data)/2]...)
	case FlipByte:
		out := append([]byte(nil), data...)
		if len(out) > 0 {
			// Flip a bit in the final byte: deep in the payload, past the
			// framing, so only the SHA-256 check can catch it.
			out[len(out)-1] ^= 0x01
		}
		return out
	default:
		return data
	}
}

// Truncate applies FsTruncate, then truncates through the base FS.
func (f *Fs) Truncate(path string, size int64) error {
	if err := f.inj.Fire(FsTruncate); err != nil {
		return err
	}
	return f.base.Truncate(path, size)
}

// CreateTemp opens a staging file whose Write and Sync are fault
// points.
func (f *Fs) CreateTemp(dir, pattern string) (ledger.File, error) {
	return f.wrap(f.base.CreateTemp(dir, pattern))
}

// Rename applies FsRename, then renames through the base FS.
func (f *Fs) Rename(oldpath, newpath string) error {
	if err := f.inj.Fire(FsRename); err != nil {
		return err
	}
	return f.base.Rename(oldpath, newpath)
}

// Link applies FsLink, then links through the base FS.
func (f *Fs) Link(oldpath, newpath string) error {
	if err := f.inj.Fire(FsLink); err != nil {
		return err
	}
	return f.base.Link(oldpath, newpath)
}

// Remove passes through (cleanup never injects: a failed cleanup of a
// failed write would mask the interesting error).
func (f *Fs) Remove(name string) error { return f.base.Remove(name) }

// SyncDir passes through; the injectable fsync is the file's
// (File.Sync), which every durability path depends on.
func (f *Fs) SyncDir(dir string) error { return f.base.SyncDir(dir) }

func (f *Fs) wrap(file ledger.File, err error) (ledger.File, error) {
	if err != nil {
		return nil, err
	}
	return &faultFile{inj: f.inj, base: file}, nil
}

// faultFile interposes FsWrite and FsSync on an open handle.
type faultFile struct {
	inj  *Injector
	base ledger.File
}

func (f *faultFile) Name() string { return f.base.Name() }

func (f *faultFile) Write(p []byte) (int, error) {
	if fire, plan := f.inj.check(FsWrite); fire {
		cause := plan.Err
		if cause == nil {
			cause = ENOSPC
		}
		err := fmt.Errorf("faultinject: %s: %w", FsWrite, cause)
		if plan.ShortWrite && len(p) > 1 {
			// Model a disk filling mid-write: half the bytes land.
			n, werr := f.base.Write(p[:len(p)/2])
			if werr != nil {
				return n, werr
			}
			return n, err
		}
		return 0, err
	}
	return f.base.Write(p)
}

func (f *faultFile) Sync() error {
	if err := f.inj.Fire(FsSync); err != nil {
		return err
	}
	return f.base.Sync()
}

func (f *faultFile) Close() error { return f.base.Close() }
