package durable

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
)

// The older layout kept two files per session: <id>.snap, one
// EncodeSnapshot image replaced by temp+rename, and <id>.wal, "TPPW" | u8
// version 1 | delta frames. A WAL could still hold frames its snapshot
// already covered, which replay skipped. Nothing but the conversion below
// reads that layout.

var legacyWALMagic = [4]byte{'T', 'P', 'P', 'W'}

var legacySuffixes = [2]string{".snap", ".wal"}

// convertLegacy turns each legacy pair among a store directory's entries
// into a session log: the header, the .snap image as a snapshot frame and
// the WAL's live frames copied verbatim, written to a temp file, fsynced,
// renamed into place and the directory fsynced. Only then is the pair
// removed. A pair whose log already exists (a crash after that rename) is
// only removed: the log wins. A pair that does not parse is quarantined.
func (st *Store) convertLegacy(entries []fs.DirEntry) error {
	files := make(map[string]bool, len(entries))
	for _, e := range entries {
		files[e.Name()] = !e.IsDir()
	}
	done := make(map[string]bool)
	for _, e := range entries {
		for _, suffix := range legacySuffixes {
			if id, ok := strings.CutSuffix(e.Name(), suffix); ok && files[e.Name()] && !done[id] && validID(id) == nil {
				done[id] = true
				if err := st.convertPair(id, files[id+logSuffix]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (st *Store) convertPair(id string, haveLog bool) error {
	if !haveLog {
		img, err := st.legacyImage(id)
		if errors.Is(err, ErrCorruptSnapshot) || errors.Is(err, ErrCorruptWAL) {
			for _, suffix := range legacySuffixes {
				if err := st.quarantine(id + suffix); err != nil {
					return err
				}
			}
			st.opts.Metrics.Quarantined.Inc()
			return nil
		}
		if err == nil {
			h := &Session{store: st, id: id, buf: img}
			err = h.writeLog(true)
			h.Close()
		}
		if err != nil {
			return fmt.Errorf("durable: converting %s: %w", id, err)
		}
	}
	for _, suffix := range legacySuffixes {
		if err := st.fsys.Remove(filepath.Join(st.dir, id+suffix)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("durable: removing converted %s: %w", id+suffix, err)
		}
	}
	return nil
}

// legacyImage builds the session log a legacy pair converts to. A missing
// or undecodable .snap is ErrCorruptSnapshot; a missing WAL holds no
// deltas. The WAL's frames up to the snapshot's seq are skipped as its
// recovery skipped them, and the result must pass parseLog, so damage is
// judged by the one-file rule: a tear only in the final frame, anything
// else ErrCorruptWAL.
func (st *Store) legacyImage(id string) ([]byte, error) {
	raw, err := st.fsys.ReadFile(filepath.Join(st.dir, id+legacySuffixes[0]))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, corruptSnapf("session %s has a WAL but no snapshot", id)
	} else if err != nil {
		return nil, err
	}
	snap, err := DecodeSnapshot(raw)
	if err != nil {
		return nil, err
	}
	wal, err := st.fsys.ReadFile(filepath.Join(st.dir, id+legacySuffixes[1]))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	img := appendLogHeader(make([]byte, 0, logHeaderLen+frameHdrLen+len(raw)+len(wal)))
	img = sealFrame(append(append(img, 0, 0, 0, 0, 0, 0, 0, 0), raw...), logHeaderLen, snapshotBit)
	if len(wal) >= len(legacyWALMagic)+1 && ([4]byte(wal[:4]) != legacyWALMagic || wal[4] != 1) {
		return nil, corruptWALf("session %s: bad WAL header %q", id, wal[:5])
	}
	for off, base := len(legacyWALMagic)+1, len(img); off < len(wal); {
		payload, _, next, err := readFrame(wal, off)
		if errors.Is(err, ErrTornTail) {
			break
		} else if err != nil {
			return nil, err
		}
		if seq, err := frameSeq(payload, false); err != nil {
			return nil, err
		} else if seq > snap.Seq || len(img) > base {
			img = append(img, wal[off:next]...)
		}
		off = next
	}
	_, err = parseLog(img)
	return img, err
}
