// Package durable persists tpp protection sessions across process
// restarts, so a crash loses nothing a client was ever acked for.
//
// Each session is one append-only log, <dir>/<id>.tpplog: a header, then
// CRC-framed records, each a snapshot of the whole session or one
// committed delta (format in log.go). A snapshot captures a
// tpp.SessionState together with the serving metadata cmd/tppd needs back
// (labels, created time, run count); a delta frame carries the delta's
// sequence number, the labels of the nodes it adds and its binary
// encoding. <dir>/quarantine/ holds sessions renamed aside after a failed
// recovery.
//
// Create writes a new file holding the header and the first snapshot
// frame, then fsyncs it and the directory. AppendDelta appends a delta
// frame (fsynced before the caller acks under Options.SyncWrites).
// Snapshot and Compact append a snapshot frame and fsync, making every
// frame before it dead; once the dead bytes would outgrow the live ones by
// rewriteRatio, the snapshot replaces the file instead (temp, fsync,
// rename, directory fsync). Only recovery's cut of a torn tail changes a
// live file in place, so every crash point leaves the old log or the new.
//
// Recover reads the file once, takes the last intact snapshot frame and
// returns the delta frames after it, which must continue its sequence.
// Damage in the final frame is a torn tail, the signature of a crash
// mid-append, and is truncated; damage anywhere else is corruption, typed
// so the caller can quarantine the session instead of crashing. Open
// converts sessions in the older two-file layout once (legacy.go).
//
// All I/O goes through the FS seam so the fault-injection tests can fail,
// tear or crash any write, rename or sync.
package durable

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

var (
	// ErrCorruptSnapshot reports a session log with no intact snapshot
	// frame, or whose last snapshot failed its magic, version, CRC or
	// structural validation. The session should be quarantined.
	ErrCorruptSnapshot = errors.New("durable: corrupt snapshot")
	// ErrTornTail reports a log whose final frame is incomplete or fails
	// its checksum — the expected signature of a crash mid-append. The
	// frames before the tear are intact; Recover truncates the tear and
	// carries on.
	ErrTornTail = errors.New("durable: torn log tail")
	// ErrCorruptWAL reports log damage that is not a torn tail: a bad
	// header, a sequence discontinuity, a damaged frame before the last
	// one, or a delta frame whose checksum passes but whose payload does
	// not decode. The session should be quarantined.
	ErrCorruptWAL = errors.New("durable: corrupt log")
)

// FS is the filesystem seam every store operation goes through. The
// production implementation is the os package (osFS); tests substitute
// implementations that fail, tear or drop writes at chosen points.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(name string) ([]fs.DirEntry, error)
	Truncate(name string, size int64) error
	// SyncDir fsyncs a directory, making a completed create or rename
	// durable.
	SyncDir(name string) error
}

// File is the writable-file surface the store needs.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// osFS is the production FS: the os package, verbatim.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }

func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

const (
	logSuffix      = ".tpplog"
	tmpSuffix      = ".tmp"
	quarantineDir  = "quarantine"
	defaultCompact = 256
	// rewriteRatio is how far a log's dead bytes (every frame before its
	// last snapshot) may outgrow its live ones before the next snapshot
	// rewrites the file instead of appending to it. A rewrite costs a
	// temp file, a rename and a directory fsync, so it is amortised over
	// this many snapshot appends; a log stays within rewriteRatio+1 times
	// the size of its live state.
	rewriteRatio = 4
)

func (st *Store) logPath(id string) string { return filepath.Join(st.dir, id+logSuffix) }
