package durable

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/dynamic"
	"repro/internal/telemetry"
)

// Options configures a Store.
type Options struct {
	// FS is the filesystem seam; nil selects the os package.
	FS FS
	// SyncWrites fsyncs every WAL append before AppendDelta returns —
	// the fsync-before-ack durability contract. Off, a crash can lose
	// the deltas still in the page cache (but never corrupt the log).
	SyncWrites bool
	// CompactEvery folds the WAL into a fresh snapshot once it holds this
	// many entries (<=0 selects 256). See Session.ShouldCompact.
	CompactEvery int
	// Metrics receives persistence counters; all fields are optional
	// (the telemetry instruments are nil-safe).
	Metrics Metrics
}

// Metrics are the persistence instruments a Store feeds. (Successful
// rehydrations are the embedding server's to count — the store only sees
// the recovery, not whether the session came back to life.)
type Metrics struct {
	WALAppends    *telemetry.Counter
	WALFsync      *telemetry.Histogram // nanoseconds per WAL fsync
	SnapshotBytes *telemetry.Histogram // encoded size per snapshot written
	Quarantined   *telemetry.Counter
}

// Store is one session-persistence directory. A Store is safe for
// concurrent use across different session IDs; operations on the same ID
// must be serialised by the caller (cmd/tppd holds the session's record
// slot), matching the one-writer-per-session model.
type Store struct {
	dir  string
	fsys FS
	opts Options
}

// Open prepares dir as a session store: the directory is created if
// needed and stale in-flight snapshot temp files from a previous crash are
// removed.
func Open(dir string, opts Options) (*Store, error) {
	if opts.FS == nil {
		opts.FS = osFS{}
	}
	if opts.CompactEvery <= 0 {
		opts.CompactEvery = defaultCompact
	}
	st := &Store{dir: dir, fsys: opts.FS, opts: opts}
	if err := st.fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: creating store dir: %w", err)
	}
	entries, err := st.fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: scanning store dir: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), tmpSuffix) {
			if err := st.fsys.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, fmt.Errorf("durable: removing stale temp %s: %w", e.Name(), err)
			}
		}
	}
	return st, nil
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

// IDs lists the persisted session IDs in sorted order: the union of
// snapshot and WAL basenames, so an orphaned WAL (its snapshot lost)
// surfaces as a recoverable-then-quarantinable ID instead of silently
// lingering.
func (st *Store) IDs() ([]string, error) {
	entries, err := st.fsys.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		var id string
		switch {
		case strings.HasSuffix(name, tmpSuffix):
			continue
		case strings.HasSuffix(name, snapSuffix):
			id = strings.TrimSuffix(name, snapSuffix)
		case strings.HasSuffix(name, walSuffix):
			id = strings.TrimSuffix(name, walSuffix)
		default:
			continue
		}
		if id != "" && !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Exists reports whether any persisted bytes exist for id (snapshot or
// WAL) without opening them — the cheap "was this ever a session?" probe
// that distinguishes a 404 from a recovery attempt.
func (st *Store) Exists(id string) bool {
	if validID(id) != nil {
		return false
	}
	for _, p := range []string{st.snapPath(id), st.walPath(id)} {
		if _, err := st.fsys.Stat(p); err == nil {
			return true
		}
	}
	return false
}

// validID rejects IDs that would escape the store directory. Server-minted
// IDs ("s-<hex>") always pass; this guards hand-fed paths.
func validID(id string) error {
	if id == "" || strings.ContainsAny(id, "/\\") || strings.Contains(id, "..") {
		return fmt.Errorf("durable: invalid session id %q", id)
	}
	return nil
}

// Session is the append handle for one persisted session. Not safe for
// concurrent use — the caller serialises per-session operations.
type Session struct {
	store   *Store
	id      string
	wal     File
	seq     uint64 // sequence number of the last appended delta
	entries int    // WAL entries since the last snapshot
	buf     []byte // reused frame buffer: steady-state appends allocate nothing
	encBuf  []byte // reused snapshot encode buffer
}

// Create persists a brand-new session: its initial snapshot (atomically:
// temp, fsync, rename, dir fsync) and an empty WAL, both durable before
// Create returns. snap.Seq seeds the sequence numbering (0 for a fresh
// session).
func (st *Store) Create(snap *SessionSnapshot) (*Session, error) {
	if err := validID(snap.ID); err != nil {
		return nil, err
	}
	h := &Session{store: st, id: snap.ID, seq: snap.Seq}
	if err := h.writeSnapshot(snap); err != nil {
		return nil, err
	}
	if err := h.resetWAL(); err != nil {
		return nil, err
	}
	return h, nil
}

// Recover loads a persisted session: the snapshot is decoded, the WAL
// replayed against its watermark, and a torn tail truncated in place. It
// returns the snapshot, the WAL entries to re-apply in order, and the live
// append handle (already positioned after the last good entry). Errors
// wrap ErrCorruptSnapshot or ErrCorruptWAL; the caller decides whether to
// quarantine.
func (st *Store) Recover(id string) (*SessionSnapshot, []Entry, *Session, error) {
	if err := validID(id); err != nil {
		return nil, nil, nil, err
	}
	raw, err := st.fsys.ReadFile(st.snapPath(id))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil, nil, fmt.Errorf("%w: session %s has no snapshot", ErrCorruptSnapshot, id)
		}
		return nil, nil, nil, fmt.Errorf("durable: reading snapshot of %s: %w", id, err)
	}
	snap, err := DecodeSnapshot(raw)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("session %s: %w", id, err)
	}
	snap.ID = id

	h := &Session{store: st, id: id, seq: snap.Seq}
	walRaw, err := st.fsys.ReadFile(st.walPath(id))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// A session snapshotted but never logged to (or whose WAL reset
		// never landed): start a fresh log.
		if err := h.resetWAL(); err != nil {
			return nil, nil, nil, err
		}
		return snap, nil, h, nil
	case err != nil:
		return nil, nil, nil, fmt.Errorf("durable: reading WAL of %s: %w", id, err)
	}
	rep, err := parseWAL(walRaw, snap.Seq)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("session %s: %w", id, err)
	}
	switch {
	case rep.torn != nil:
		// Keep the intact prefix, drop the tear, then reopen for append.
		if rep.goodLen < walHeaderLen {
			if err := h.resetWAL(); err != nil {
				return nil, nil, nil, err
			}
		} else if err := st.fsys.Truncate(st.walPath(id), rep.goodLen); err != nil {
			return nil, nil, nil, fmt.Errorf("durable: truncating torn WAL of %s: %w", id, err)
		}
	case rep.frames > 0 && len(rep.entries) == 0:
		// Every frame predates the snapshot: the residue of a crash
		// between compaction's rename and truncate. Finish the truncate.
		if err := st.fsys.Truncate(st.walPath(id), walHeaderLen); err != nil {
			return nil, nil, nil, fmt.Errorf("durable: truncating stale WAL of %s: %w", id, err)
		}
	}
	if rep.torn == nil || rep.goodLen >= walHeaderLen {
		wal, err := st.fsys.OpenFile(st.walPath(id), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("durable: reopening WAL of %s: %w", id, err)
		}
		h.wal = wal
	}
	h.seq = rep.lastSeq
	h.entries = len(rep.entries)
	return snap, rep.entries, h, nil
}

// Quarantine renames a session's files aside into <dir>/quarantine/ so a
// damaged session stops failing recovery on every boot while keeping its
// bytes for inspection. Missing files are fine; an existing quarantined
// copy is overwritten (the newest failure is the interesting one).
func (st *Store) Quarantine(id string) error {
	if err := validID(id); err != nil {
		return err
	}
	qdir := filepath.Join(st.dir, quarantineDir)
	if err := st.fsys.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("durable: creating quarantine dir: %w", err)
	}
	var firstErr error
	for _, suffix := range []string{snapSuffix, walSuffix} {
		src := filepath.Join(st.dir, id+suffix)
		if err := st.fsys.Rename(src, filepath.Join(qdir, id+suffix)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			if firstErr == nil {
				firstErr = fmt.Errorf("durable: quarantining %s: %w", id+suffix, err)
			}
		}
	}
	if firstErr == nil {
		st.opts.Metrics.Quarantined.Inc()
	}
	return firstErr
}

// Remove destroys a session's files — the persistence half of DELETE.
func (st *Store) Remove(id string) error {
	if err := validID(id); err != nil {
		return err
	}
	var firstErr error
	for _, p := range []string{st.snapPath(id), st.walPath(id)} {
		if err := st.fsys.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ID returns the session id the handle persists.
func (h *Session) ID() string { return h.id }

// Seq returns the sequence number of the last appended (or recovered)
// delta.
func (h *Session) Seq() uint64 { return h.seq }

// Entries returns the WAL entry count since the last snapshot.
func (h *Session) Entries() int { return h.entries }

// ShouldCompact reports whether the WAL has reached the compaction
// threshold; the caller then snapshots the session and calls Compact.
func (h *Session) ShouldCompact() bool {
	return h.entries >= h.store.opts.CompactEvery
}

// AppendDelta appends one committed delta to the WAL — together with the
// labels its AddNodes arrivals were created under — and, under SyncWrites,
// fsyncs it before returning; only then may the caller ack the client. The
// frame is assembled in a reused buffer, so steady-state appends allocate
// nothing. On error the log may hold a torn frame; recovery truncates it,
// so the entry is not acked and not replayed — exactly the contract. The
// caller should stop using the handle (and degrade or quarantine the
// session's durability) after an error.
func (h *Session) AppendDelta(d dynamic.Delta, addedLabels []string) error {
	if h.wal == nil {
		return fmt.Errorf("durable: session %s: append on closed WAL", h.id)
	}
	h.buf = appendFrame(h.buf[:0], h.seq+1, addedLabels, d)
	if _, err := h.wal.Write(h.buf); err != nil {
		return fmt.Errorf("durable: appending to WAL of %s: %w", h.id, err)
	}
	if h.store.opts.SyncWrites {
		start := time.Now()
		if err := h.wal.Sync(); err != nil {
			return fmt.Errorf("durable: syncing WAL of %s: %w", h.id, err)
		}
		h.store.opts.Metrics.WALFsync.Observe(int64(time.Since(start)))
	}
	h.seq++
	h.entries++
	h.store.opts.Metrics.WALAppends.Inc()
	return nil
}

// Compact folds the session's current state into a fresh snapshot and
// resets the WAL: write temp, fsync, rename over the old snapshot, fsync
// the directory, then truncate the log to its header. snap.Seq must equal
// the handle's sequence number — the snapshot must describe exactly the
// state the log reached. Any crash point is recoverable: before the
// rename the old snapshot + full WAL still serve; after it, replay skips
// the now-stale frames.
func (h *Session) Compact(snap *SessionSnapshot) error {
	if snap.Seq != h.seq {
		return fmt.Errorf("durable: session %s: compacting at seq %d but WAL is at %d", h.id, snap.Seq, h.seq)
	}
	if err := h.writeSnapshot(snap); err != nil {
		return err
	}
	if err := h.store.fsys.Truncate(h.store.walPath(h.id), walHeaderLen); err != nil {
		return fmt.Errorf("durable: resetting WAL of %s: %w", h.id, err)
	}
	h.entries = 0
	return nil
}

// Snapshot writes a fresh snapshot (same atomic dance as Compact) without
// resetting the WAL — the final flush when a session whose in-memory state
// has advanced past snapshot + WAL is spilled, where the log need not be
// reset because replay skips frames the snapshot covers. A spill with
// nothing to add just Closes the handle: Recover re-counts the tail, so
// Entries and the CompactEvery replay bound carry across residencies.
func (h *Session) Snapshot(snap *SessionSnapshot) error {
	if snap.Seq != h.seq {
		return fmt.Errorf("durable: session %s: snapshotting at seq %d but WAL is at %d", h.id, snap.Seq, h.seq)
	}
	return h.writeSnapshot(snap)
}

// Close releases the WAL handle. The files stay; Recover picks the
// session back up.
func (h *Session) Close() error {
	if h.wal == nil {
		return nil
	}
	err := h.wal.Close()
	h.wal = nil
	return err
}

// Destroy closes the handle and removes the session's files.
func (h *Session) Destroy() error {
	cerr := h.Close()
	if err := h.store.Remove(h.id); err != nil {
		return err
	}
	return cerr
}

// writeSnapshot is the atomic snapshot write: encode, write temp, fsync,
// rename into place, fsync the directory.
func (h *Session) writeSnapshot(snap *SessionSnapshot) error {
	st := h.store
	h.encBuf = EncodeSnapshot(h.encBuf[:0], snap)
	tmp := st.tmpPath(h.id)
	f, err := st.fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: creating snapshot temp for %s: %w", h.id, err)
	}
	if _, err := f.Write(h.encBuf); err != nil {
		f.Close()
		return fmt.Errorf("durable: writing snapshot of %s: %w", h.id, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: syncing snapshot of %s: %w", h.id, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: closing snapshot of %s: %w", h.id, err)
	}
	if err := st.fsys.Rename(tmp, st.snapPath(h.id)); err != nil {
		return fmt.Errorf("durable: publishing snapshot of %s: %w", h.id, err)
	}
	if err := st.fsys.SyncDir(st.dir); err != nil {
		return fmt.Errorf("durable: syncing store dir for %s: %w", h.id, err)
	}
	st.opts.Metrics.SnapshotBytes.Observe(int64(len(h.encBuf)))
	return nil
}

// resetWAL (re)creates the session's WAL with a fresh header, durable
// before return, and points the handle at it.
func (h *Session) resetWAL() error {
	st := h.store
	if h.wal != nil {
		h.wal.Close()
		h.wal = nil
	}
	// O_APPEND, not a plain offset: Compact truncates the file under this
	// handle, and append mode re-anchors the next write at the new EOF
	// instead of leaving a zero-filled hole at the old offset.
	f, err := st.fsys.OpenFile(st.walPath(h.id), os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("durable: creating WAL of %s: %w", h.id, err)
	}
	if _, err := f.Write(appendWALHeader(nil)); err != nil {
		f.Close()
		return fmt.Errorf("durable: writing WAL header of %s: %w", h.id, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: syncing WAL header of %s: %w", h.id, err)
	}
	if err := st.fsys.SyncDir(st.dir); err != nil {
		f.Close()
		return fmt.Errorf("durable: syncing store dir for %s: %w", h.id, err)
	}
	h.wal = f
	h.entries = 0
	return nil
}
