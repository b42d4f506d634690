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
	// SyncWrites fsyncs every delta append before AppendDelta returns —
	// the fsync-before-ack durability contract. Off, a crash can lose
	// the deltas still in the page cache (but never corrupt the log).
	SyncWrites bool
	// CompactEvery bounds replay: once a log holds this many delta frames
	// after its last snapshot (<=0 selects 256), ShouldCompact asks for a
	// fresh one.
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
	WALFsync      *telemetry.Histogram // nanoseconds per delta-append fsync
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
// needed, temp files a crash left behind are removed, and sessions in the
// older two-file layout are converted to logs.
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
	if err := st.convertLegacy(entries); err != nil {
		return nil, err
	}
	return st, nil
}

// IDs lists the persisted session IDs in sorted order.
func (st *Store) IDs() ([]string, error) {
	entries, err := st.fsys.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		if id, ok := strings.CutSuffix(e.Name(), logSuffix); ok && !e.IsDir() && id != "" {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids, nil
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
	f       File   // the log, opened for append; nil once closed
	seq     uint64 // sequence number of the last appended delta
	entries int    // delta frames since the last snapshot frame
	size    int64  // bytes in the log
	buf     []byte // reused frame buffer: steady-state appends allocate nothing
}

// Create persists a brand-new session: one new file holding the header and
// snap's frame, fsynced together with its directory before Create returns.
// snap.Seq seeds the sequence numbering (0 for a fresh session). An id
// that already has a log is refused.
func (st *Store) Create(snap *SessionSnapshot) (*Session, error) { return st.persist(snap, false) }

// Rewrite replaces a session's log with header + snap (temp, fsync,
// rename, directory fsync) and returns a handle on the new file: how a
// session whose handle failed is persisted whole again. snap.Seq seeds the
// sequence numbering.
func (st *Store) Rewrite(snap *SessionSnapshot) (*Session, error) { return st.persist(snap, true) }

func (st *Store) persist(snap *SessionSnapshot, replace bool) (*Session, error) {
	if err := validID(snap.ID); err != nil {
		return nil, err
	}
	h := &Session{store: st, id: snap.ID, seq: snap.Seq}
	h.buf = appendSnapshotFrame(appendLogHeader(nil), snap)
	if err := h.writeLog(replace); err != nil {
		h.Close()
		return nil, err
	}
	st.opts.Metrics.SnapshotBytes.Observe(int64(len(h.buf) - logHeaderLen - frameHdrLen))
	return h, nil
}

// Recover loads a persisted session in one read: the last intact snapshot
// frame decoded, the delta frames after it returned in order, and a torn
// final frame truncated in place. It returns the snapshot, the entries to
// re-apply, and the live append handle (positioned after the last good
// frame). An id with no log returns an error wrapping fs.ErrNotExist;
// damage wraps ErrCorruptSnapshot or ErrCorruptWAL, and the caller
// decides whether to quarantine.
func (st *Store) Recover(id string) (*SessionSnapshot, []Entry, *Session, error) {
	if validID(id) != nil {
		return nil, nil, nil, fmt.Errorf("durable: session %q: %w", id, fs.ErrNotExist)
	}
	path := st.logPath(id)
	raw, err := st.fsys.ReadFile(path)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("durable: reading log of %s: %w", id, err)
	}
	rep, err := parseLog(raw)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("session %s: %w", id, err)
	}
	if rep.snap == nil {
		return nil, nil, nil, fmt.Errorf("%w: session %s has no intact snapshot frame", ErrCorruptSnapshot, id)
	}
	snap, err := DecodeSnapshot(rep.snap)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("session %s: %w", id, err)
	}
	snap.ID = id
	if rep.torn != nil {
		if err := st.fsys.Truncate(path, rep.goodLen); err != nil {
			return nil, nil, nil, fmt.Errorf("durable: truncating torn log of %s: %w", id, err)
		}
	}
	f, err := st.fsys.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("durable: reopening log of %s: %w", id, err)
	}
	h := &Session{store: st, id: id, f: f, seq: rep.lastSeq, entries: len(rep.entries), size: rep.goodLen}
	return snap, rep.entries, h, nil
}

// Quarantine renames a session's log aside into <dir>/quarantine/ so a
// damaged session stops failing recovery on every boot while keeping its
// bytes for inspection. A missing log is fine; an existing quarantined
// copy is overwritten (the newest failure is the interesting one).
func (st *Store) Quarantine(id string) error {
	if err := validID(id); err != nil {
		return err
	}
	if err := st.quarantine(id + logSuffix); err != nil {
		return err
	}
	st.opts.Metrics.Quarantined.Inc()
	return nil
}

// quarantine moves the named store file into the quarantine directory.
func (st *Store) quarantine(name string) error {
	qdir := filepath.Join(st.dir, quarantineDir)
	if err := st.fsys.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("durable: creating quarantine dir: %w", err)
	}
	if err := st.fsys.Rename(filepath.Join(st.dir, name), filepath.Join(qdir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("durable: quarantining %s: %w", name, err)
	}
	return nil
}

// Remove destroys a session's log — the persistence half of DELETE.
func (st *Store) Remove(id string) error {
	if err := validID(id); err != nil {
		return err
	}
	if err := st.fsys.Remove(st.logPath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// Seq returns the sequence number of the last appended (or recovered)
// delta.
func (h *Session) Seq() uint64 { return h.seq }

// ShouldCompact reports whether the log has reached the compaction
// threshold; the caller then snapshots the session and calls Compact.
func (h *Session) ShouldCompact() bool {
	return h.entries >= h.store.opts.CompactEvery
}

// AppendDelta appends one committed delta to the log — together with the
// labels its AddNodes arrivals were created under — and, under SyncWrites,
// fsyncs it before returning; only then may the caller ack the client. The
// frame is assembled in a reused buffer, so steady-state appends allocate
// nothing. On error the log may end in a torn frame, which recovery
// truncates, so the entry is neither acked nor replayed — exactly the
// contract. The handle is closed after an error; Store.Rewrite persists
// the session whole again.
func (h *Session) AppendDelta(d dynamic.Delta, addedLabels []string) error {
	if h.f == nil {
		return fmt.Errorf("durable: session %s: append on closed log", h.id)
	}
	h.buf = appendFrame(h.buf[:0], h.seq+1, addedLabels, d)
	if _, err := h.f.Write(h.buf); err != nil {
		h.Close()
		return fmt.Errorf("durable: appending to log of %s: %w", h.id, err)
	}
	if h.store.opts.SyncWrites {
		start := time.Now()
		if err := h.f.Sync(); err != nil {
			h.Close()
			return fmt.Errorf("durable: syncing log of %s: %w", h.id, err)
		}
		h.store.opts.Metrics.WALFsync.Observe(int64(time.Since(start)))
	}
	h.seq++
	h.entries++
	h.size += int64(len(h.buf))
	h.store.opts.Metrics.WALAppends.Inc()
	return nil
}

// Compact is Snapshot, called when ShouldCompact reports the replay bound
// reached: the fresh snapshot frame supersedes every delta frame before it.
func (h *Session) Compact(snap *SessionSnapshot) error { return h.Snapshot(snap) }

// Snapshot persists snap, which must describe exactly the state the log
// reached (snap.Seq equal to the handle's). Normally it appends one
// snapshot frame and fsyncs; when the frames it supersedes would outgrow
// the live ones by rewriteRatio, it rewrites the log as header + snap
// instead. A failed append closes the handle (the log may end in a torn
// frame, which recovery truncates); a failed rewrite leaves the old log,
// and the handle on it, as they were.
func (h *Session) Snapshot(snap *SessionSnapshot) error {
	if snap.Seq != h.seq {
		return fmt.Errorf("durable: session %s: snapshotting at seq %d but log is at %d", h.id, snap.Seq, h.seq)
	}
	if h.f == nil {
		return fmt.Errorf("durable: session %s: snapshot on closed log", h.id)
	}
	h.buf = appendSnapshotFrame(appendLogHeader(h.buf[:0]), snap)
	var err error
	if dead, live := h.size-logHeaderLen, int64(len(h.buf)); dead > rewriteRatio*live {
		err = h.writeLog(true)
	} else if err = writeSync(h.f, h.buf[logHeaderLen:]); err != nil {
		h.Close()
		err = fmt.Errorf("durable: appending snapshot to log of %s: %w", h.id, err)
	} else {
		h.size += int64(len(h.buf) - logHeaderLen)
		h.entries = 0
	}
	if err != nil {
		return err
	}
	h.store.opts.Metrics.SnapshotBytes.Observe(int64(len(h.buf) - logHeaderLen - frameHdrLen))
	return nil
}

// writeLog makes h.buf (a header and frames) the session's whole log and
// points the handle at it. A new log is created in place, refusing an
// existing one; replace writes a temp file instead and renames it over the
// old log. The file is fsynced before it is in place and the directory
// after. If the directory fsync fails, a new log is removed again (its
// create fails, so no client holds the id and a boot must not revive it),
// while a rewrite's renamed log stays, with the handle on it.
func (h *Session) writeLog(replace bool) error {
	st := h.store
	path := st.logPath(h.id)
	name, flag := path, os.O_EXCL
	if replace {
		name, flag = path+tmpSuffix, os.O_TRUNC
	}
	f, err := st.fsys.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND|flag, 0o644)
	if err != nil {
		return fmt.Errorf("durable: writing log of %s: %w", h.id, err)
	}
	if err = writeSync(f, h.buf); err == nil && replace {
		err = st.fsys.Rename(name, path)
	}
	if err != nil {
		f.Close()
		// Best effort: Open sweeps a stale temp, and recovery quarantines
		// a new log left without an intact snapshot.
		_ = st.fsys.Remove(name)
		return fmt.Errorf("durable: writing log of %s: %w", h.id, err)
	}
	h.Close()
	h.f, h.size, h.entries = f, int64(len(h.buf)), 0
	if err := st.fsys.SyncDir(st.dir); err != nil {
		if !replace {
			h.Close()
			_ = st.fsys.Remove(path) // best effort, as above
		}
		return fmt.Errorf("durable: syncing store dir for %s: %w", h.id, err)
	}
	return nil
}

// writeSync writes b to f and fsyncs it.
func writeSync(f File, b []byte) error {
	if _, err := f.Write(b); err != nil {
		return err
	}
	return f.Sync()
}

// Close releases the append handle. The log stays; Recover picks the
// session back up.
func (h *Session) Close() error {
	if h.f == nil {
		return nil
	}
	err := h.f.Close()
	h.f = nil
	return err
}

// Destroy closes the handle and removes the session's log.
func (h *Session) Destroy() error {
	cerr := h.Close()
	if err := h.store.Remove(h.id); err != nil {
		return err
	}
	return cerr
}
