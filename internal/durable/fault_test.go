package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// hookFS wraps a real FS and lets a test fail or tear individual
// operations: each non-nil hook replaces the underlying call.
type hookFS struct {
	FS
	openFile func(name string, flag int, perm os.FileMode) (File, error)
	rename   func(oldpath, newpath string) error
	syncDir  func(name string) error
}

func (f *hookFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if f.openFile != nil {
		return f.openFile(name, flag, perm)
	}
	return f.FS.OpenFile(name, flag, perm)
}

func (f *hookFS) Rename(oldpath, newpath string) error {
	if f.rename != nil {
		return f.rename(oldpath, newpath)
	}
	return f.FS.Rename(oldpath, newpath)
}

func (f *hookFS) SyncDir(name string) error {
	if f.syncDir != nil {
		return f.syncDir(name)
	}
	return f.FS.SyncDir(name)
}

// tearing returns an openFile hook that tears every write to files whose
// name ends in suffix after limit bytes.
func tearing(fsys *hookFS, suffix string, limit int) func(string, int, os.FileMode) (File, error) {
	return func(name string, flag int, perm os.FileMode) (File, error) {
		f, err := fsys.FS.OpenFile(name, flag, perm)
		if err != nil || !strings.HasSuffix(name, suffix) {
			return f, err
		}
		return &tornFile{File: f, limit: limit}, nil
	}
}

// tornFile passes through at most limit bytes of each Write, then reports
// failure — the on-disk shape of a crash (or a full disk) mid-write.
type tornFile struct {
	File
	limit int
}

func (f *tornFile) Write(p []byte) (int, error) {
	if len(p) > f.limit {
		n, _ := f.File.Write(p[:f.limit])
		f.limit = 0
		return n, errors.New("injected: write torn mid-frame")
	}
	f.limit -= len(p)
	return f.File.Write(p)
}

var errInjected = errors.New("injected fault")

// seedSession creates a session with n committed deltas in dir using the
// real filesystem, then closes it — the healthy starting point every fault
// scenario damages.
func seedSession(t *testing.T, dir, id string, n int) {
	t.Helper()
	st := openTestStore(t, dir, Options{SyncWrites: true})
	h, err := st.Create(testSnapshot(t, id, 41))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		d, labels := testDelta(i)
		if err := h.AppendDelta(d, labels); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// primeRewrite appends snapshot frames until the log's dead bytes are one
// snapshot short of rewriteRatio times its live ones, so the next
// Snapshot of the returned state rewrites the file instead of appending.
func primeRewrite(t *testing.T, h *Session) *SessionSnapshot {
	t.Helper()
	snap := testSnapshot(t, h.id, 41)
	snap.Seq = h.Seq()
	img := int64(len(appendSnapshotFrame(appendLogHeader(nil), snap)))
	for h.size-logHeaderLen <= rewriteRatio*img {
		if err := h.Snapshot(snap); err != nil {
			t.Fatal(err)
		}
	}
	return snap
}

// recoverClean recovers id from dir through the real filesystem and
// checks the watermark and tail length.
func recoverClean(t *testing.T, dir, id string, wantSeq uint64, wantEntries int) {
	t.Helper()
	st := openTestStore(t, dir, Options{SyncWrites: true})
	got, entries, h, err := st.Recover(id)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if got.Seq != wantSeq || len(entries) != wantEntries {
		t.Fatalf("recovered watermark %d + %d entries, want %d + %d", got.Seq, len(entries), wantSeq, wantEntries)
	}
}

// TestFaultTornAppend: a delta append that tears mid-frame fails the
// commit, and a later recovery sees only the frames that were fully
// written — the unacked delta vanishes, exactly the contract.
func TestFaultTornAppend(t *testing.T) {
	dir := t.TempDir()
	seedSession(t, dir, "s-fault", 2)

	fsys := &hookFS{FS: osFS{}}
	fsys.openFile = tearing(fsys, logSuffix, 5)
	st := openTestStore(t, dir, Options{FS: fsys, SyncWrites: true})
	_, entries, h, err := st.Recover("s-fault")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("recovered %d entries, want 2", len(entries))
	}
	d, labels := testDelta(2)
	if err := h.AppendDelta(d, labels); err == nil {
		t.Fatal("torn write must fail the append")
	}
	if err := h.AppendDelta(d, labels); err == nil {
		t.Fatal("a handle whose append failed must refuse further appends")
	}

	// A clean process recovering the same directory truncates the torn
	// frame and replays only the two acked deltas.
	st2 := openTestStore(t, dir, Options{SyncWrites: true})
	_, entries, h2, err := st2.Recover("s-fault")
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if len(entries) != 2 || h2.Seq() != 2 {
		t.Fatalf("after torn append: %d entries at seq %d, want 2 at 2", len(entries), h2.Seq())
	}
	d3, labels3 := testDelta(3)
	if err := h2.AppendDelta(d3, labels3); err != nil {
		t.Fatal(err)
	}
}

// TestFaultTornSnapshotAppend: a snapshot frame torn mid-append (a crash
// during a dirty spill or compaction) fails the snapshot and closes the
// handle; recovery truncates the torn frame and serves the previous
// snapshot plus every delta after it.
func TestFaultTornSnapshotAppend(t *testing.T) {
	dir := t.TempDir()
	seedSession(t, dir, "s-fault", 2)

	fsys := &hookFS{FS: osFS{}}
	fsys.openFile = tearing(fsys, logSuffix, 100)
	st := openTestStore(t, dir, Options{FS: fsys, SyncWrites: true})
	_, _, h, err := st.Recover("s-fault")
	if err != nil {
		t.Fatal(err)
	}
	snap := testSnapshot(t, "s-fault", 41)
	snap.Seq = h.Seq()
	if err := h.Snapshot(snap); err == nil {
		t.Fatal("torn snapshot append must fail")
	}
	d, labels := testDelta(2)
	if err := h.AppendDelta(d, labels); err == nil {
		t.Fatal("a handle whose snapshot append failed must refuse appends")
	}
	recoverClean(t, dir, "s-fault", 0, 2)
}

// TestFaultCreateTorn: a Create whose write tears leaves no log behind, so
// the id neither rehydrates as a half-written session nor blocks a retry.
func TestFaultCreateTorn(t *testing.T) {
	dir := t.TempDir()
	fsys := &hookFS{FS: osFS{}}
	fsys.openFile = tearing(fsys, logSuffix, 10)
	st := openTestStore(t, dir, Options{FS: fsys})
	if _, err := st.Create(testSnapshot(t, "s-fault", 41)); err == nil {
		t.Fatal("Create must fail when its write tears")
	}
	if ids, err := st.IDs(); err != nil || len(ids) != 0 {
		t.Fatalf("a failed Create left sessions %v (%v)", ids, err)
	}
	h, err := openTestStore(t, dir, Options{}).Create(testSnapshot(t, "s-fault", 41))
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
}

// TestFaultSnapshotTempWriteFails: a rewrite whose temp file write tears
// fails the snapshot but never disturbs the live log, and the handle keeps
// appending to it.
func TestFaultSnapshotTempWriteFails(t *testing.T) {
	dir := t.TempDir()
	seedSession(t, dir, "s-fault", 2)
	fsys := &hookFS{FS: osFS{}}
	fsys.openFile = tearing(fsys, tmpSuffix, 10)
	testRewriteFails(t, dir, fsys)
}

// TestFaultCompactionRenameFails: a rewrite whose rename fails reports the
// error; the live log and its handle are as they were, so nothing acked is
// lost.
func TestFaultCompactionRenameFails(t *testing.T) {
	dir := t.TempDir()
	seedSession(t, dir, "s-fault", 2)
	fsys := &hookFS{FS: osFS{}}
	fsys.rename = func(oldpath, newpath string) error { return errInjected }
	testRewriteFails(t, dir, fsys)
}

// testRewriteFails drives a rewrite of s-fault that fsys makes fail before
// its rename lands, then checks the log is byte for byte what it was, no
// temp file is left, and an append on the same handle survives recovery.
func testRewriteFails(t *testing.T, dir string, fsys *hookFS) {
	t.Helper()
	st := openTestStore(t, dir, Options{FS: fsys, SyncWrites: true})
	_, _, h, err := st.Recover("s-fault")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	snap := primeRewrite(t, h)
	before, err := os.ReadFile(st.logPath("s-fault"))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Compact(snap); err == nil {
		t.Fatal("Compact must report the failed rewrite")
	}
	after, err := os.ReadFile(st.logPath("s-fault"))
	if err != nil || !bytes.Equal(after, before) {
		t.Fatalf("a failed rewrite changed the live log (%v)", err)
	}
	if _, err := os.Stat(st.logPath("s-fault") + tmpSuffix); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed rewrite left its temp file: %v", err)
	}
	d, labels := testDelta(2)
	if err := h.AppendDelta(d, labels); err != nil {
		t.Fatalf("handle unusable after a failed rewrite: %v", err)
	}
	recoverClean(t, dir, "s-fault", 2, 1)
}

// TestFaultRewriteSyncDirFails: once a rewrite's rename lands, the handle
// is on the new file even when the directory fsync after it fails, so a
// delta appended afterwards is in the log recovery reads, not in the
// unlinked old inode.
func TestFaultRewriteSyncDirFails(t *testing.T) {
	dir := t.TempDir()
	seedSession(t, dir, "s-fault", 2)
	fsys := &hookFS{FS: osFS{}}
	fsys.syncDir = func(string) error { return errInjected }
	st := openTestStore(t, dir, Options{FS: fsys, SyncWrites: true})
	_, _, h, err := st.Recover("s-fault")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	snap := primeRewrite(t, h)
	snap.Runs = 99 // tells the rewritten snapshot from the primed ones
	if err := h.Snapshot(snap); !errors.Is(err, errInjected) {
		t.Fatalf("Snapshot error = %v, want the injected dir fsync failure", err)
	}
	d, labels := testDelta(2)
	if err := h.AppendDelta(d, labels); err != nil {
		t.Fatal(err)
	}
	got, entries, h2, err := openTestStore(t, dir, Options{}).Recover("s-fault")
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if got.Runs != 99 || got.Seq != 2 || len(entries) != 1 || entries[0].Seq != 3 {
		t.Fatalf("after rewrite + append: runs %d, watermark %d, %d entries; want 99, 2, [3]", got.Runs, got.Seq, len(entries))
	}
}

// TestFaultLegacyConvert: a conversion whose temp write or rename fails
// fails Open and leaves the legacy pair as it was, with no log; the next
// clean Open converts it.
func TestFaultLegacyConvert(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(*hookFS)
	}{
		{"temp write torn", func(f *hookFS) { f.openFile = tearing(f, tmpSuffix, 10) }},
		{"rename fails", func(f *hookFS) { f.rename = func(string, string) error { return errInjected } }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := copyLegacyFixture(t)
			fsys := &hookFS{FS: osFS{}}
			tc.arm(fsys)
			if _, err := Open(dir, Options{FS: fsys}); err == nil {
				t.Fatal("Open must report the failed conversion")
			}
			for _, name := range []string{legacyID + ".snap", legacyID + ".wal"} {
				want, _ := os.ReadFile(filepath.Join(legacyFixtureDir, name))
				if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("failed conversion disturbed %s (%v)", name, err)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, legacyID+logSuffix)); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("failed conversion left a log: %v", err)
			}
			recoverClean(t, dir, legacyID, 2, 3)
		})
	}
}

// countFS counts the store's file creations, writes, fsyncs, renames and
// directory fsyncs.
type countFS struct {
	FS
	creates, writes, syncs, renames, syncDirs int
}

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if flag&os.O_CREATE != 0 {
		c.creates++
	}
	return &countFile{File: f, fs: c}, nil
}

func (c *countFS) Rename(oldpath, newpath string) error {
	c.renames++
	return c.FS.Rename(oldpath, newpath)
}

func (c *countFS) SyncDir(name string) error {
	c.syncDirs++
	return c.FS.SyncDir(name)
}

type countFile struct {
	File
	fs *countFS
}

func (f *countFile) Write(p []byte) (int, error) { f.fs.writes++; return f.File.Write(p) }
func (f *countFile) Sync() error                 { f.fs.syncs++; return f.File.Sync() }

// TestFaultCountedSyscalls pins the write path's cost in file operations:
// Create is one file creation, one write, one fsync and one directory
// fsync; a snapshot of a dirty session is one append and one fsync, with
// no rename and no directory fsync.
func TestFaultCountedSyscalls(t *testing.T) {
	c := &countFS{FS: osFS{}}
	st := openTestStore(t, t.TempDir(), Options{FS: c, SyncWrites: true})
	h, err := st.Create(testSnapshot(t, "s-count", 41))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if *c != (countFS{FS: c.FS, creates: 1, writes: 1, syncs: 1, syncDirs: 1}) {
		t.Fatalf("Create: %+v, want 1 create, 1 write, 1 fsync, 1 dir fsync", *c)
	}
	d, labels := testDelta(0)
	if err := h.AppendDelta(d, labels); err != nil {
		t.Fatal(err)
	}
	*c = countFS{FS: c.FS}
	snap := testSnapshot(t, "s-count", 41)
	snap.Seq = h.Seq()
	if err := h.Snapshot(snap); err != nil {
		t.Fatal(err)
	}
	if *c != (countFS{FS: c.FS, writes: 1, syncs: 1}) {
		t.Fatalf("dirty Snapshot: %+v, want 1 write, 1 fsync", *c)
	}
}
