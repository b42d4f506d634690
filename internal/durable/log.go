package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/dynamic"
)

// Session log format, version 1:
//
//	"TPPL" | u8 version | frame*
//	frame = u32le payloadLen|kind | u32le crc32c(payload) | payload
//	kind  = bit 31 of the length word: set for a snapshot frame
//	snapshot payload = an EncodeSnapshot image (its Seq is the watermark)
//	delta payload    = uvarint seq | labels | delta (dynamic.AppendBinary)
//	labels = uvarint count | (uvarint len | bytes)*
//
// A delta frame is byte for byte a frame of the older per-session WAL
// file, so conversion copies frames instead of re-encoding them. labels
// name the delta's AddNodes arrivals — the one piece of serving state the
// binary delta (dense IDs only) cannot reconstruct.
//
// Sequence numbers ascend by one per committed delta across the session's
// whole life. The first frame is a snapshot; a later snapshot frame
// carries the seq of the frame before it, a delta frame the next one.

var logMagic = [4]byte{'T', 'P', 'P', 'L'}

const (
	logVersion   = 1
	logHeaderLen = 5
	frameHdrLen  = 8
	snapshotBit  = 1 << 31
	// maxFramePayload rejects absurd length prefixes before any copy. A
	// session delta is bounded by the request-body cap far below this.
	maxFramePayload = 1 << 30
)

func corruptWALf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorruptWAL, fmt.Sprintf(format, args...))
}

func tornTailf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrTornTail, fmt.Sprintf(format, args...))
}

func appendLogHeader(buf []byte) []byte {
	buf = append(buf, logMagic[:]...)
	return append(buf, logVersion)
}

// Entry is one recovered delta frame: a committed delta plus the labels its
// AddNodes arrivals were created under.
type Entry struct {
	Seq    uint64
	Labels []string
	Delta  dynamic.Delta
}

// appendFrame appends one framed delta to buf.
func appendFrame(buf []byte, seq uint64, labels []string, d dynamic.Delta) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(len(labels)))
	for _, l := range labels {
		buf = binary.AppendUvarint(buf, uint64(len(l)))
		buf = append(buf, l...)
	}
	buf = d.AppendBinary(buf)
	return sealFrame(buf, start, 0)
}

// appendSnapshotFrame appends snap as one snapshot frame to buf.
func appendSnapshotFrame(buf []byte, snap *SessionSnapshot) []byte {
	return sealFrame(EncodeSnapshot(append(buf, 0, 0, 0, 0, 0, 0, 0, 0), snap), len(buf), snapshotBit)
}

// sealFrame backfills the header of the frame starting at buf[start].
func sealFrame(buf []byte, start int, kind uint32) []byte {
	payload := buf[start+frameHdrLen:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload))|kind)
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// readFrame reads the frame at data[off:], returning its payload, whether
// it is a snapshot frame and the offset just past it. Damage is a torn
// tail only in the final frame: cut short by the end of data, or failing
// its checksum where it ends exactly there. A checksum failure with bytes
// after it, or an absurd length, is corruption.
func readFrame(data []byte, off int) (payload []byte, snapshot bool, next int, err error) {
	if len(data)-off < frameHdrLen {
		return nil, false, 0, tornTailf("truncated frame header at offset %d", off)
	}
	word := binary.LittleEndian.Uint32(data[off:])
	snapshot, plen := word&snapshotBit != 0, word&^snapshotBit
	if plen > maxFramePayload {
		return nil, snapshot, 0, corruptWALf("frame at offset %d claims %d payload bytes", off, plen)
	}
	if uint64(len(data)-off-frameHdrLen) < uint64(plen) {
		return nil, snapshot, 0, tornTailf("truncated frame payload at offset %d", off)
	}
	next = off + frameHdrLen + int(plen)
	payload = data[off+frameHdrLen : next]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(data[off+4:]); got != want {
		switch {
		case next == len(data):
			err = tornTailf("final frame checksum mismatch at offset %d: file %08x, computed %08x", off, want, got)
		case snapshot:
			err = corruptSnapf("damaged snapshot frame at offset %d before the last frame", off)
		default:
			err = corruptWALf("damaged frame at offset %d before the last frame", off)
		}
		return nil, snapshot, 0, err
	}
	return payload, snapshot, next, nil
}

// frameSeq reads the sequence number a checksummed frame payload leads
// with, past a snapshot's magic and version. (DecodeSnapshot validates the
// snapshot frame recovery uses.)
func frameSeq(payload []byte, snapshot bool) (uint64, error) {
	if snapshot {
		payload = payload[min(len(payload), len(snapMagic)+1):]
	}
	seq, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, corruptWALf("bad sequence varint")
	}
	return seq, nil
}

// decodeEntry decodes one delta frame payload.
func decodeEntry(payload []byte) (Entry, error) {
	seq, n := binary.Uvarint(payload)
	if n <= 0 {
		return Entry{}, corruptWALf("bad sequence varint")
	}
	labels, lend, err := decodeLabels(payload, n)
	if err != nil {
		return Entry{}, corruptWALf("frame seq %d: %v", seq, err)
	}
	d, err := dynamic.DecodeDelta(payload[lend:])
	if err != nil {
		return Entry{}, corruptWALf("frame seq %d: %v", seq, err)
	}
	return Entry{Seq: seq, Labels: labels, Delta: d}, nil
}

// decodeLabels reads the labels section from a frame payload starting at
// off, returning the labels and the offset just past them.
func decodeLabels(payload []byte, off int) ([]string, int, error) {
	n64, n := binary.Uvarint(payload[off:])
	if n <= 0 {
		return nil, 0, fmt.Errorf("bad label count varint")
	}
	off += n
	// Every label costs at least its one-byte length prefix; a count beyond
	// the remaining bytes is hostile, rejected before allocating.
	if n64 > uint64(len(payload)-off) {
		return nil, 0, fmt.Errorf("label count %d exceeds frame size", n64)
	}
	var labels []string
	if n64 > 0 {
		labels = make([]string, 0, n64)
	}
	for i := uint64(0); i < n64; i++ {
		l64, n := binary.Uvarint(payload[off:])
		if n <= 0 {
			return nil, 0, fmt.Errorf("bad label length varint")
		}
		off += n
		if l64 > uint64(len(payload)-off) {
			return nil, 0, fmt.Errorf("label length %d exceeds frame size", l64)
		}
		labels = append(labels, string(payload[off:off+int(l64)]))
		off += int(l64)
	}
	return labels, off, nil
}

// logReplay is the outcome of parsing one session log image.
type logReplay struct {
	// snap is the payload of the last intact snapshot frame, nil when the
	// log has none.
	snap []byte
	// entries are the delta frames after it, decoded, in order; lastSeq
	// is the last one's sequence number (the snapshot's when none).
	entries []Entry
	lastSeq uint64
	// goodLen is the byte offset just past the last intact frame — the
	// truncation point when torn is set.
	goodLen int64
	// torn is the ErrTornTail describing a damaged final frame, nil for a
	// clean log. The fields above describe the intact prefix either way.
	torn error
}

// parseLog decodes a session log image. A torn final frame (readFrame) or
// a header cut short is reported through logReplay.torn. Anything else
// wrong returns ErrCorruptWAL, or ErrCorruptSnapshot for a damaged
// snapshot frame: a bad header, damage before the final frame, a sequence
// discontinuity, a delta frame before any snapshot, or a delta after the
// last snapshot that does not decode. Superseded delta frames are checked
// by checksum and sequence only; snapshot frames are not decoded here.
func parseLog(data []byte) (logReplay, error) {
	var rep logReplay
	if len(data) < logHeaderLen {
		// A crash between creating the file and writing its first bytes.
		rep.torn = tornTailf("short header (%d bytes)", len(data))
		return rep, nil
	}
	if [4]byte(data[:4]) != logMagic {
		return rep, corruptWALf("bad magic %q", data[:4])
	}
	if v := data[4]; v != logVersion {
		return rep, corruptWALf("unknown log version %d", v)
	}
	rep.goodLen = logHeaderLen
	var tail [][]byte // delta payloads after the last snapshot
	for off := logHeaderLen; off < len(data); {
		payload, snapshot, next, err := readFrame(data, off)
		if errors.Is(err, ErrTornTail) {
			rep.torn = err
			break
		} else if err != nil {
			return rep, err
		}
		seq, err := frameSeq(payload, snapshot)
		if err != nil {
			return rep, err
		}
		switch {
		case snapshot && rep.snap != nil && seq != rep.lastSeq:
			return rep, corruptWALf("snapshot at seq %d after seq %d", seq, rep.lastSeq)
		case snapshot:
			rep.snap, tail = payload, tail[:0]
		case rep.snap == nil:
			return rep, corruptWALf("delta frame seq %d before any snapshot", seq)
		case seq != rep.lastSeq+1:
			return rep, corruptWALf("frame seq %d after seq %d", seq, rep.lastSeq)
		default:
			tail = append(tail, payload)
		}
		rep.lastSeq = seq
		off = next
		rep.goodLen = int64(off)
	}
	for _, payload := range tail {
		e, err := decodeEntry(payload)
		if err != nil {
			return rep, err
		}
		rep.entries = append(rep.entries, e)
	}
	return rep, nil
}
