package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/tpp"
)

// Snapshot binary format, version 1. Everything between the version byte
// and the trailing CRC is the body:
//
//	"TPPS" | u8 version | body | u32le crc32c(magic..body)
//
// The body is varint-coded (uvarint for counts and IDs, zigzag varint for
// signed values): serving metadata (seq, created, runs, default budget,
// labels), the resolved session options, the graph as per-node sorted
// forward-adjacency rows with delta-coded neighbours, the target list in
// priority order, the session counters, the warm-start selection and the
// index invariants. Decode validates every count against the bytes
// actually remaining before allocating, so a corrupted length prefix can
// cost at most O(input) memory, never more.

var snapMagic = [4]byte{'T', 'P', 'P', 'S'}

const snapVersion = 1

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// lazyEngineByte is the engine byte of the retired CELF engine, which every
// default session stored. It selected identically to tpp.EngineIndexed,
// so it decodes as that.
const lazyEngineByte = 2

func corruptSnapf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorruptSnapshot, fmt.Sprintf(format, args...))
}

// SessionSnapshot is one persisted session: the tpp session state plus the
// serving metadata cmd/tppd keeps outside the Protector.
type SessionSnapshot struct {
	// ID is the session's name — the files' basename. Not encoded in the
	// body; Recover fills it in from the path.
	ID string
	// Seq is the sequence number of the last delta folded into this
	// snapshot: the compaction watermark. WAL frames with seq <= Seq are
	// already reflected here and are skipped on replay.
	Seq uint64
	// Created and Runs restore the session's serving metadata.
	Created time.Time
	Runs    int64
	// DefaultBudget is the creation-time budget echoed in protect
	// responses.
	DefaultBudget int
	// Labels is the node-label table in node-ID order (Labels[i] names
	// node i).
	Labels []string
	// State is the session's persistent protection state.
	State *tpp.SessionState
}

// EncodeSnapshot appends snap's binary encoding (including magic, version
// and trailing CRC) to buf and returns the extended slice.
func EncodeSnapshot(buf []byte, snap *SessionSnapshot) []byte {
	start := len(buf)
	buf = append(buf, snapMagic[:]...)
	buf = append(buf, snapVersion)

	buf = binary.AppendUvarint(buf, snap.Seq)
	buf = binary.AppendVarint(buf, snap.Created.UnixNano())
	buf = binary.AppendUvarint(buf, uint64(snap.Runs))
	buf = binary.AppendUvarint(buf, uint64(snap.DefaultBudget))
	buf = binary.AppendUvarint(buf, uint64(len(snap.Labels)))
	for _, l := range snap.Labels {
		buf = appendString(buf, l)
	}

	st := snap.State
	buf = appendString(buf, st.Pattern.String())
	buf = appendString(buf, string(st.Method))
	buf = appendString(buf, string(st.Division))
	buf = binary.AppendUvarint(buf, uint64(st.Budget))
	buf = append(buf, byte(st.Engine), byte(st.Scope))
	buf = binary.AppendUvarint(buf, uint64(st.Workers))
	buf = binary.AppendVarint(buf, st.Seed)
	buf = appendBool(buf, st.WarmOff)

	buf = appendGraph(buf, st.Graph)
	buf = appendEdgeList(buf, st.Targets)

	buf = binary.AppendUvarint(buf, uint64(st.WarmRuns))
	buf = binary.AppendUvarint(buf, uint64(st.ColdRuns))
	buf = binary.AppendUvarint(buf, uint64(st.WarmFallbacks))
	buf = binary.AppendUvarint(buf, uint64(st.DeltasApplied))

	buf = appendBool(buf, st.Warm != nil)
	if w := st.Warm; w != nil {
		buf = appendBool(buf, w.Exhausted)
		buf = appendEdgeList(buf, w.Protectors)
		for _, g := range w.Gains {
			buf = binary.AppendUvarint(buf, uint64(g))
		}
		buf = appendEdgeList(buf, w.Touched)
	}

	buf = appendBool(buf, st.Index != nil)
	if iv := st.Index; iv != nil {
		buf = binary.AppendUvarint(buf, uint64(iv.Universe))
		buf = binary.AppendUvarint(buf, uint64(iv.Instances))
		buf = binary.AppendUvarint(buf, uint64(iv.TotalSimilarity))
		buf = binary.LittleEndian.AppendUint32(buf, iv.GainCRC)
	}

	crc := crc32.Checksum(buf[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// DecodeSnapshot decodes one EncodeSnapshot image. The CRC is verified
// first, then the structure; every failure wraps ErrCorruptSnapshot.
func DecodeSnapshot(data []byte) (*SessionSnapshot, error) {
	if len(data) < len(snapMagic)+1+4 {
		return nil, corruptSnapf("file too short (%d bytes)", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.Checksum(body, castagnoli); got != want {
		return nil, corruptSnapf("checksum mismatch: file %08x, computed %08x", got, want)
	}
	if [4]byte(body[:4]) != snapMagic {
		return nil, corruptSnapf("bad magic %q", body[:4])
	}
	if v := body[4]; v != snapVersion {
		return nil, corruptSnapf("unknown snapshot version %d", v)
	}
	r := &snapReader{data: body, off: 5}

	snap := &SessionSnapshot{State: &tpp.SessionState{}}
	st := snap.State
	var err error
	if snap.Seq, err = r.uvarint(); err != nil {
		return nil, err
	}
	createdNanos, err := r.varint()
	if err != nil {
		return nil, err
	}
	snap.Created = time.Unix(0, createdNanos)
	if snap.Runs, err = r.nonNegInt64("runs"); err != nil {
		return nil, err
	}
	if snap.DefaultBudget, err = r.intBounded("default budget", math.MaxInt32); err != nil {
		return nil, err
	}
	nLabels, err := r.count("labels", 1)
	if err != nil {
		return nil, err
	}
	if nLabels > 0 {
		snap.Labels = make([]string, nLabels)
		for i := range snap.Labels {
			if snap.Labels[i], err = r.str("label"); err != nil {
				return nil, err
			}
		}
	}

	patternName, err := r.str("pattern")
	if err != nil {
		return nil, err
	}
	if st.Pattern, err = motif.ParsePattern(patternName); err != nil {
		return nil, corruptSnapf("%v", err)
	}
	method, err := r.str("method")
	if err != nil {
		return nil, err
	}
	st.Method = tpp.Method(method)
	division, err := r.str("division")
	if err != nil {
		return nil, err
	}
	st.Division = tpp.Division(division)
	if st.Budget, err = r.intBounded("budget", math.MaxInt32); err != nil {
		return nil, err
	}
	engine, err := r.byte()
	if err != nil {
		return nil, err
	}
	switch engine {
	case byte(tpp.EngineRecount), byte(tpp.EngineIndexed):
		st.Engine = tpp.Engine(engine)
	case lazyEngineByte:
		st.Engine = tpp.EngineIndexed
	default:
		return nil, corruptSnapf("unknown engine %d", engine)
	}
	scope, err := r.byte()
	if err != nil {
		return nil, err
	}
	if st.Scope = tpp.Scope(scope); st.Scope < tpp.ScopeAllEdges || st.Scope > tpp.ScopeTargetSubgraphs {
		return nil, corruptSnapf("unknown scope %d", scope)
	}
	if st.Workers, err = r.intBounded("workers", math.MaxInt32); err != nil {
		return nil, err
	}
	if st.Seed, err = r.varint(); err != nil {
		return nil, err
	}
	if st.WarmOff, err = r.boolean(); err != nil {
		return nil, err
	}

	if st.Graph, err = r.graph(); err != nil {
		return nil, err
	}
	n := st.Graph.NumNodes()
	if len(snap.Labels) != 0 && len(snap.Labels) != n {
		return nil, corruptSnapf("%d labels for %d nodes", len(snap.Labels), n)
	}
	if st.Targets, err = r.edgeList("targets", n); err != nil {
		return nil, err
	}

	if st.WarmRuns, err = r.nonNegInt64("warm runs"); err != nil {
		return nil, err
	}
	if st.ColdRuns, err = r.nonNegInt64("cold runs"); err != nil {
		return nil, err
	}
	if st.WarmFallbacks, err = r.nonNegInt64("warm fallbacks"); err != nil {
		return nil, err
	}
	if st.DeltasApplied, err = r.nonNegInt64("deltas applied"); err != nil {
		return nil, err
	}

	hasWarm, err := r.boolean()
	if err != nil {
		return nil, err
	}
	if hasWarm {
		w := &tpp.WarmSelection{}
		if w.Exhausted, err = r.boolean(); err != nil {
			return nil, err
		}
		if w.Protectors, err = r.edgeList("warm protectors", n); err != nil {
			return nil, err
		}
		if len(w.Protectors) > 0 {
			w.Gains = make([]int, len(w.Protectors))
			for i := range w.Gains {
				if w.Gains[i], err = r.intBounded("warm gain", math.MaxInt32); err != nil {
					return nil, err
				}
			}
		}
		if w.Touched, err = r.edgeList("warm touched", n); err != nil {
			return nil, err
		}
		st.Warm = w
	}

	hasIndex, err := r.boolean()
	if err != nil {
		return nil, err
	}
	if hasIndex {
		iv := &tpp.IndexInvariants{}
		if iv.Universe, err = r.intBounded("index universe", math.MaxInt32); err != nil {
			return nil, err
		}
		if iv.Instances, err = r.intBounded("index instances", math.MaxInt32); err != nil {
			return nil, err
		}
		if iv.TotalSimilarity, err = r.intBounded("index similarity", math.MaxInt32); err != nil {
			return nil, err
		}
		if iv.GainCRC, err = r.uint32le(); err != nil {
			return nil, err
		}
		st.Index = iv
	}

	if r.off != len(r.data) {
		return nil, corruptSnapf("%d trailing bytes after snapshot body", len(r.data)-r.off)
	}
	return snap, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// appendGraph encodes the graph as per-node forward-adjacency rows: for
// each node u in order, the count of neighbours v > u followed by the
// neighbours delta-coded off u (first as v-u-1, then off the previous
// neighbour). Rows come straight off NeighborsView's sorted slices, and
// decoding re-adds edges in canonical lex order — the graph's amortised
// O(1) append path.
func appendGraph(buf []byte, g *graph.Graph) []byte {
	n := g.NumNodes()
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(g.NumEdges()))
	for u := 0; u < n; u++ {
		row := g.NeighborsView(graph.NodeID(u))
		// Forward neighbours are a suffix of the sorted row.
		i := 0
		for i < len(row) && row[i] <= graph.NodeID(u) {
			i++
		}
		fwd := row[i:]
		buf = binary.AppendUvarint(buf, uint64(len(fwd)))
		prev := graph.NodeID(u)
		for _, v := range fwd {
			buf = binary.AppendUvarint(buf, uint64(v-prev-1))
			prev = v
		}
	}
	return buf
}

func appendEdgeList(buf []byte, es []graph.Edge) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(es)))
	for _, e := range es {
		buf = binary.AppendUvarint(buf, uint64(e.U))
		buf = binary.AppendUvarint(buf, uint64(e.V))
	}
	return buf
}

// snapReader is a bounds-checked cursor over a snapshot body.
type snapReader struct {
	data []byte
	off  int
}

func (r *snapReader) byte() (byte, error) {
	if r.off >= len(r.data) {
		return 0, corruptSnapf("truncated at offset %d", r.off)
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

func (r *snapReader) boolean() (bool, error) {
	b, err := r.byte()
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, corruptSnapf("bad boolean %d at offset %d", b, r.off-1)
	}
	return b == 1, nil
}

func (r *snapReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, corruptSnapf("bad uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *snapReader) varint() (int64, error) {
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		return 0, corruptSnapf("bad varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *snapReader) uint32le() (uint32, error) {
	if len(r.data)-r.off < 4 {
		return 0, corruptSnapf("truncated at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

func (r *snapReader) nonNegInt64(field string) (int64, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt64 {
		return 0, corruptSnapf("%s %d out of range", field, v)
	}
	return int64(v), nil
}

func (r *snapReader) intBounded(field string, max uint64) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > max {
		return 0, corruptSnapf("%s %d out of range", field, v)
	}
	return int(v), nil
}

// count reads a length prefix and rejects any value whose elements (at
// least minBytes each) could not fit in the remaining input — the
// allocation bound for every decoded slice.
func (r *snapReader) count(field string, minBytes int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64((len(r.data)-r.off)/minBytes) {
		return 0, corruptSnapf("%s count %d exceeds remaining input", field, v)
	}
	return int(v), nil
}

func (r *snapReader) str(field string) (string, error) {
	n, err := r.count(field, 1)
	if err != nil {
		return "", err
	}
	s := string(r.data[r.off : r.off+n])
	r.off += n
	return s, nil
}

func (r *snapReader) nodeID(n int) (graph.NodeID, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v >= uint64(n) {
		return 0, corruptSnapf("node id %d outside [0,%d)", v, n)
	}
	return graph.NodeID(v), nil
}

func (r *snapReader) edgeList(field string, n int) ([]graph.Edge, error) {
	cnt, err := r.count(field, 2)
	if err != nil {
		return nil, err
	}
	if cnt == 0 {
		return nil, nil
	}
	out := make([]graph.Edge, cnt)
	for i := range out {
		if out[i].U, err = r.nodeID(n); err != nil {
			return nil, err
		}
		if out[i].V, err = r.nodeID(n); err != nil {
			return nil, err
		}
		if out[i].U == out[i].V {
			return nil, corruptSnapf("%s edge %d is a self loop", field, i)
		}
	}
	return out, nil
}

func (r *snapReader) graph() (*graph.Graph, error) {
	// Every node costs at least one byte (its row count), so the count
	// check bounds graph.New's allocation by the input size.
	n, err := r.count("graph nodes", 1)
	if err != nil {
		return nil, err
	}
	wantEdges, err := r.intBounded("graph edges", math.MaxInt32)
	if err != nil {
		return nil, err
	}
	g := graph.New(n)
	for u := 0; u < n; u++ {
		cnt, err := r.count("adjacency row", 1)
		if err != nil {
			return nil, err
		}
		prev := graph.NodeID(u)
		for i := 0; i < cnt; i++ {
			dv, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			v := uint64(prev) + 1 + dv
			if v >= uint64(n) {
				return nil, corruptSnapf("adjacency of node %d reaches node %d outside [0,%d)", u, v, n)
			}
			g.AddEdge(graph.NodeID(u), graph.NodeID(v))
			prev = graph.NodeID(v)
		}
	}
	if g.NumEdges() != wantEdges {
		return nil, corruptSnapf("adjacency rows hold %d edges, header says %d", g.NumEdges(), wantEdges)
	}
	return g, nil
}
