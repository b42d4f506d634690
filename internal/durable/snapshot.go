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
// default session stored: the largest engine byte a snapshot can hold.
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
	// A session has one engine and one scope; the bytes stay in the format.
	buf = append(buf, byte(tpp.EngineIndexed), byte(tpp.ScopeTargetSubgraphs))
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
	snap.Seq = r.uvarint()
	snap.Created = time.Unix(0, r.varint())
	snap.Runs = r.nonNegInt64("runs")
	snap.DefaultBudget = r.smallInt("default budget")
	if nLabels := r.count("labels", 1); nLabels > 0 {
		snap.Labels = make([]string, nLabels)
		for i := range snap.Labels {
			snap.Labels[i] = r.str("label")
		}
	}

	var err error
	if st.Pattern, err = motif.ParsePattern(r.str("pattern")); err != nil {
		r.fail("%v", err)
	}
	st.Method = tpp.Method(r.str("method"))
	st.Division = tpp.Division(r.str("division"))
	st.Budget = r.smallInt("budget")
	// Every engine a session could store (recount, indexed, the retired
	// lazy) and either scope (all-edges, restricted) selected identically,
	// so all restore as the one session engine and scope. A byte outside
	// them is corruption.
	if engine := r.byte(); engine > lazyEngineByte {
		r.fail("unknown engine %d", engine)
	}
	if scope := r.byte(); scope > byte(tpp.ScopeTargetSubgraphs) {
		r.fail("unknown scope %d", scope)
	}
	st.Workers = r.smallInt("workers")
	st.Seed = r.varint()
	st.WarmOff = r.boolean()

	st.Graph = r.graph()
	n := st.Graph.NumNodes()
	if len(snap.Labels) != 0 && len(snap.Labels) != n {
		r.fail("%d labels for %d nodes", len(snap.Labels), n)
	}
	st.Targets = r.edgeList("targets", n)

	st.WarmRuns = r.nonNegInt64("warm runs")
	st.ColdRuns = r.nonNegInt64("cold runs")
	st.WarmFallbacks = r.nonNegInt64("warm fallbacks")
	st.DeltasApplied = r.nonNegInt64("deltas applied")

	if r.boolean() {
		w := &tpp.WarmSelection{}
		w.Exhausted = r.boolean()
		w.Protectors = r.edgeList("warm protectors", n)
		if len(w.Protectors) > 0 {
			w.Gains = make([]int, len(w.Protectors))
			for i := range w.Gains {
				w.Gains[i] = r.smallInt("warm gain")
			}
		}
		w.Touched = r.edgeList("warm touched", n)
		st.Warm = w
	}

	if r.boolean() {
		iv := &tpp.IndexInvariants{}
		iv.Universe = r.smallInt("index universe")
		iv.Instances = r.smallInt("index instances")
		iv.TotalSimilarity = r.smallInt("index similarity")
		iv.GainCRC = r.uint32le()
		st.Index = iv
	}

	if r.off != len(r.data) {
		r.fail("%d trailing bytes after snapshot body", len(r.data)-r.off)
	}
	if r.err != nil {
		return nil, r.err
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

// snapReader is a bounds-checked cursor over a snapshot body. The first
// failure sticks in err and every later read returns a zero value, so a
// decode reads straight through and checks err once at the end. Zero
// counts keep a failed decode from allocating.
type snapReader struct {
	data []byte
	off  int
	err  error
}

// fail records a corruption unless an earlier one is already recorded.
func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = corruptSnapf(format, args...)
	}
}

func (r *snapReader) byte() byte {
	if r.err != nil || r.off >= len(r.data) {
		r.fail("truncated at offset %d", r.off)
		return 0
	}
	r.off++
	return r.data[r.off-1]
}

func (r *snapReader) boolean() bool {
	b := r.byte()
	if b > 1 {
		r.fail("bad boolean %d at offset %d", b, r.off-1)
	}
	return b == 1
}

func (r *snapReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *snapReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *snapReader) uint32le() uint32 {
	if r.err != nil || len(r.data)-r.off < 4 {
		r.fail("truncated at offset %d", r.off)
		return 0
	}
	r.off += 4
	return binary.LittleEndian.Uint32(r.data[r.off-4:])
}

// bounded reads a uvarint no larger than max.
func (r *snapReader) bounded(field string, max uint64) uint64 {
	v := r.uvarint()
	if v > max {
		r.fail("%s %d out of range", field, v)
		return 0
	}
	return v
}

func (r *snapReader) nonNegInt64(field string) int64 { return int64(r.bounded(field, math.MaxInt64)) }
func (r *snapReader) smallInt(field string) int      { return int(r.bounded(field, math.MaxInt32)) }

// count reads a length prefix and rejects any value whose elements (at
// least minBytes each) could not fit in the input left after the prefix —
// the allocation bound for every decoded slice.
func (r *snapReader) count(field string, minBytes int) int {
	v := r.uvarint()
	if v > uint64((len(r.data)-r.off)/minBytes) {
		r.fail("%s count %d out of range", field, v)
		return 0
	}
	return int(v)
}

func (r *snapReader) str(field string) string {
	n := r.count(field, 1)
	r.off += n
	return string(r.data[r.off-n : r.off])
}

func (r *snapReader) nodeID(n int) graph.NodeID {
	v := r.uvarint()
	if v >= uint64(n) {
		r.fail("node id %d outside [0,%d)", v, n)
		return 0
	}
	return graph.NodeID(v)
}

func (r *snapReader) edgeList(field string, n int) []graph.Edge {
	cnt := r.count(field, 2)
	if cnt == 0 {
		return nil
	}
	out := make([]graph.Edge, cnt)
	for i := range out {
		out[i].U, out[i].V = r.nodeID(n), r.nodeID(n)
		if r.err == nil && out[i].U == out[i].V {
			r.fail("%s edge %d is a self loop", field, i)
		}
	}
	return out
}

// graph decodes the adjacency rows appendGraph wrote. It never returns
// nil; after a failure the graph is partial and r.err is set.
func (r *snapReader) graph() *graph.Graph {
	// Every node costs at least one byte (its row count), so the count
	// check bounds graph.New's allocation by the input size.
	n := r.count("graph nodes", 1)
	wantEdges := r.smallInt("graph edges")
	// Every edge costs at least one byte too.
	edges := make([]graph.Edge, 0, min(wantEdges, len(r.data)-r.off))
	for u := 0; u < n; u++ {
		prev := graph.NodeID(u)
		for i, cnt := 0, r.count("adjacency row", 1); i < cnt && r.err == nil; i++ {
			d := r.uvarint()
			v := uint64(prev) + 1 + d
			if d >= uint64(n) || v >= uint64(n) {
				r.fail("adjacency of node %d reaches node %d outside [0,%d)", u, v, n)
				break
			}
			edges = append(edges, graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v)})
			prev = graph.NodeID(v)
		}
	}
	g := graph.FromEdges(n, edges)
	if g.NumEdges() != wantEdges {
		r.fail("adjacency rows hold %d edges, header says %d", g.NumEdges(), wantEdges)
	}
	return g
}
