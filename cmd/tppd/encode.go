package main

// Reply encoding. The hot routes' replies are appended straight into a
// pooled buffer in the strconv.Append* idiom, with the bytes
// json.NewEncoder(w).Encode would write for the same value: one line of
// compact JSON, keys in field order, HTML-escaped strings, encoding/json's
// float format and the trailing newline. A protect reply's protectors and
// released edges are written from the session graph's sorted rows and its
// label table, so no [][2]string and no released graph is built; the reply
// is therefore encoded while the record slot is held, and only the socket
// write happens with nothing held. The cold routes (stats, datasets,
// health) are encoded the same way, so encoding/json is never on the reply
// path.

import (
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/graph"
	"repro/internal/telemetry"
	"repro/internal/tpp"
)

// jsonBuf is a pooled reply buffer.
type jsonBuf struct {
	b []byte
	// keys is the protect encoder's scratch: the protectors' packed edges,
	// sorted, to skip them while sweeping the graph's rows.
	keys []uint64
}

// maxPooledJSONBuf caps the reply buffers handed back to the pool: a rare
// huge reply (a large released graph) is left to the GC rather than
// pinning its capacity in the pool.
const maxPooledJSONBuf = 1 << 20

var jsonBufPool = sync.Pool{New: func() any { return new(jsonBuf) }}

// newJSONBuf takes an empty buffer from the pool.
func newJSONBuf() *jsonBuf {
	e := jsonBufPool.Get().(*jsonBuf)
	e.b = e.b[:0]
	return e
}

// free hands e back to the pool unless it grew past the cap.
func (e *jsonBuf) free() {
	if cap(e.b) <= maxPooledJSONBuf {
		jsonBufPool.Put(e)
	}
}

// writeBody writes one encoded reply with an exact Content-Length in a
// single call, so replies are never chunked.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write means the client left; nothing to answer
}

// errorReply encodes the error reply {"error": msg} into e.
//
//tpp:hotpath
func (e *jsonBuf) errorReply(msg string) *jsonBuf {
	b := append(e.b[:0], `{"error":`...)
	b = appendJSONString(b, msg)
	e.b = append(b, "}\n"...)
	return e
}

// busyReply encodes a busyResponse into e.
//
//tpp:hotpath
func (e *jsonBuf) busyReply(v *busyResponse) *jsonBuf {
	b := append(e.b[:0], `{"error":`...)
	b = appendJSONString(b, v.Error)
	b = appendKeyInt(b, `,"queue_depth":`, v.QueueDepth)
	b = appendKeyInt(b, `,"retry_after_seconds":`, int64(v.RetryAfterSeconds))
	e.b = append(b, "}\n"...)
	return e
}

// deletedReply encodes the DELETE reply, map[string]string{"status":
// "deleted", "id": id}, in encoding/json's sorted key order.
//
//tpp:hotpath
func (e *jsonBuf) deletedReply(id string) *jsonBuf {
	b := append(e.b[:0], `{"id":`...)
	b = appendJSONString(b, id)
	e.b = append(b, `,"status":"deleted"}`+"\n"...)
	return e
}

// statusReply encodes the health probes' reply, {"status": status}.
func (e *jsonBuf) statusReply(status string) *jsonBuf {
	b := append(e.b[:0], `{"status":`...)
	b = appendJSONString(b, status)
	e.b = append(b, "}\n"...)
	return e
}

// datasetsReply encodes the GET /v1/datasets reply: the datasets
// graphFromDataset builds, each as {"description","name"}.
func (e *jsonBuf) datasetsReply() *jsonBuf {
	e.b = append(e.b[:0], `{"datasets":[`+
		`{"description":"Arenas-email stand-in: 1133 nodes, ~5451 edges","name":"arenas-email"},`+
		`{"description":"DBLP co-authorship stand-in; set scale for node count (default 2000)","name":"dblp"}]}`+"\n"...)
	return e
}

// statsReply encodes the GET /v1/stats reply: the registry as one JSON
// object, a member per GET /metrics sample line but the histogram buckets
// (see telemetry.Registry.Samples), keyed by the sample's name and label
// block as printed, led by max_workers, the GOMAXPROCS the daemon runs
// under, which has no series. A NaN or infinite value, which JSON cannot
// spell, is null.
func (e *jsonBuf) statsReply(reg *telemetry.Registry) *jsonBuf {
	b := appendKeyInt(e.b[:0], `{"max_workers":`, int64(runtime.GOMAXPROCS(0)))
	reg.Samples(func(key string, n int64, f float64, isInt bool) {
		b = append(b, ',')
		b = appendJSONString(b, key)
		b = append(b, ':')
		switch {
		case isInt:
			b = strconv.AppendInt(b, n, 10)
		case math.IsNaN(f) || math.IsInf(f, 0):
			b = append(b, "null"...)
		default:
			b = appendJSONFloat(b, f)
		}
	})
	e.b = append(b, "}\n"...)
	return e
}

// deltaReply encodes a deltaResponse into e.
//
//tpp:hotpath
func (e *jsonBuf) deltaReply(v *deltaResponse) *jsonBuf {
	b := appendKeyInt(e.b[:0], `{"inserted":`, int64(v.Inserted))
	b = appendKeyInt(b, `,"removed":`, int64(v.Removed))
	b = appendKeyInt(b, `,"nodes_added":`, int64(v.NodesAdded))
	b = appendKeyInt(b, `,"nodes_removed":`, int64(v.NodesRemoved))
	b = appendKeyInt(b, `,"targets_added":`, int64(v.TargetsAdded))
	b = appendKeyInt(b, `,"targets_dropped":`, int64(v.TargetsDropped))
	b = appendKeyInt(b, `,"nodes":`, int64(v.Nodes))
	b = appendKeyInt(b, `,"edges":`, int64(v.Edges))
	b = appendKeyInt(b, `,"targets":`, int64(v.Targets))
	b = append(b, `,"incremental":`...)
	b = strconv.AppendBool(b, v.Incremental)
	b = appendKeyInt(b, `,"touched_targets":`, int64(v.TouchedTargets))
	b = appendKeyInt(b, `,"killed_instances":`, int64(v.KilledInstances))
	b = appendKeyInt(b, `,"dropped_instances":`, int64(v.DroppedInstances))
	b = appendKeyInt(b, `,"instances":`, int64(v.Instances))
	b = append(b, `,"elapsed_ms":`...)
	b = appendJSONFloat(b, v.ElapsedMS)
	e.b = append(b, "}\n"...)
	return e
}

// sessionReply describes the session to the client in e: the wire form
//
//	{"id","nodes","edges","targets":[[a,b],…],"pattern","created","runs",
//	 "deltas_applied","index_builds"}
//
// with edges counting the original graph's (the phase-1 graph plus the
// targets). created is an RFC 3339 time with nanoseconds, as
// time.Time.MarshalJSON writes it; a session's creation time is a clock
// reading of this process or one restored from its log, so its year is
// always within the format's range.
//
//tpp:hotpath
func (e *jsonBuf) sessionReply(rec *sessionRecord) *jsonBuf {
	p := rec.session.Problem()
	b := append(e.b[:0], `{"id":`...)
	b = appendJSONString(b, rec.id)
	b = appendKeyInt(b, `,"nodes":`, int64(p.G.NumNodes()))
	b = appendKeyInt(b, `,"edges":`, int64(p.G.NumEdges()+len(p.Targets)))
	b = append(b, `,"targets":`...)
	b = appendPairs(b, p.Targets, rec.lab)
	b = append(b, `,"pattern":`...)
	b = appendJSONString(b, rec.pattern)
	b = append(b, `,"created":"`...)
	b = rec.created.AppendFormat(b, time.RFC3339Nano)
	b = appendKeyInt(b, `","runs":`, rec.runs)
	b = appendKeyInt(b, `,"deltas_applied":`, rec.deltas)
	b = appendKeyInt(b, `,"index_builds":`, int64(rec.session.IndexBuilds()))
	e.b = append(b, "}\n"...)
	return e
}

// protectReply encodes one protect's report into e: the wire form
//
//	{"method","nodes","edges","targets"?,"budget","protectors",
//	 "initial_similarity","final_similarity","full_protection",
//	 "warm_start","similarity_trace","elapsed_ms","released_edges"?}
//
// targets is the problem's target list, echoed only with withTargets (the
// one-shot protect) and left out when empty. released_edges is the
// released graph, the phase-1 graph minus the protectors, in the
// canonical edge order Release(res).Edges() gives; it is left out with
// omitReleased or when the released graph has no edges.
//
//tpp:hotpath
func (e *jsonBuf) protectReply(res *tpp.Result, p *tpp.Problem, lab *graph.Labeling, budget int, withTargets, omitReleased bool) *jsonBuf {
	b := e.b[:0]
	if !omitReleased {
		b = slices.Grow(b, releasedPairBytes*p.G.NumEdges())
	}
	b = append(b, `{"method":`...)
	b = appendJSONString(b, res.Method)
	b = appendKeyInt(b, `,"nodes":`, int64(p.G.NumNodes()))
	b = appendKeyInt(b, `,"edges":`, int64(p.G.NumEdges()+len(p.Targets)))
	if withTargets && len(p.Targets) > 0 {
		b = append(b, `,"targets":`...)
		b = appendPairs(b, p.Targets, lab)
	}
	b = appendKeyInt(b, `,"budget":`, int64(budget))
	b = append(b, `,"protectors":`...)
	b = appendPairs(b, res.Protectors, lab)
	b = appendKeyInt(b, `,"initial_similarity":`, int64(res.SimilarityTrace[0]))
	b = appendKeyInt(b, `,"final_similarity":`, int64(res.FinalSimilarity()))
	b = append(b, `,"full_protection":`...)
	b = strconv.AppendBool(b, res.FullProtection())
	b = append(b, `,"warm_start":`...)
	b = strconv.AppendBool(b, res.WarmStart)
	b = append(b, `,"similarity_trace":`...)
	b = appendInts(b, res.SimilarityTrace)
	b = append(b, `,"elapsed_ms":`...)
	b = appendJSONFloat(b, float64(res.Elapsed.Microseconds())/1000)
	if !omitReleased {
		e.b = b
		b = e.appendReleased(p.G, res.Protectors, lab)
	}
	e.b = append(b, "}\n"...)
	return e
}

// releasedPairBytes sizes a protect reply's buffer up front: a released
// edge written as ["v123","v1456"], is about 17 bytes, so a pooled buffer
// the GC dropped is regrown once rather than doubled from empty.
const releasedPairBytes = 16

// appendReleased appends ,"released_edges":[…] to e.b: every edge of g
// but the protectors, swept from g's sorted rows in canonical order with
// the sorted protector keys merged alongside. Nothing is appended when no
// edge is left.
//
//tpp:hotpath
func (e *jsonBuf) appendReleased(g *graph.Graph, protectors []graph.Edge, lab *graph.Labeling) []byte {
	keys := e.keys[:0]
	for _, pe := range protectors {
		if pe.U > pe.V {
			pe.U, pe.V = pe.V, pe.U
		}
		keys = append(keys, graph.PackEdge(pe))
	}
	slices.Sort(keys)
	e.keys = keys
	mark := len(e.b)
	b := append(e.b, `,"released_edges":[`...)
	n, k := 0, 0
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		row := g.NeighborsView(u)
		above, _ := slices.BinarySearch(row, u+1)
		for _, v := range row[above:] {
			key := graph.PackEdge(graph.Edge{U: u, V: v})
			for k < len(keys) && keys[k] < key {
				k++
			}
			if k < len(keys) && keys[k] == key {
				continue
			}
			if n > 0 {
				b = append(b, ',')
			}
			b = appendPair(b, u, v, lab)
			n++
		}
	}
	if n == 0 {
		return b[:mark]
	}
	return append(b, ']')
}

// appendKeyInt appends key, a member's `,"name":` prefix, and n.
//
//tpp:hotpath
func appendKeyInt(b []byte, key string, n int64) []byte {
	return strconv.AppendInt(append(b, key...), n, 10)
}

// appendPairs appends edges as [["a","b"],…] in their labels; never null.
//
//tpp:hotpath
func appendPairs(b []byte, edges []graph.Edge, lab *graph.Labeling) []byte {
	b = append(b, '[')
	for i, ed := range edges {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendPair(b, ed.U, ed.V, lab)
	}
	return append(b, ']')
}

// appendPair appends ["a","b"] for the nodes' labels.
//
//tpp:hotpath
func appendPair(b []byte, u, v graph.NodeID, lab *graph.Labeling) []byte {
	b = append(b, '[')
	b = appendJSONString(b, lab.Name(u))
	b = append(b, ',')
	b = appendJSONString(b, lab.Name(v))
	return append(b, ']')
}

// appendInts appends a non-nil []int as encoding/json does.
//
//tpp:hotpath
func appendInts(b []byte, xs []int) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// appendJSONFloat appends a finite f in encoding/json's float64 format:
// ES6 number-to-string, shortest round-trip digits, exponent form only
// below 1e-6 or from 1e21 up, with e-07 shortened to e-7.
//
//tpp:hotpath
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// htmlSafe marks the ASCII bytes a string holds unescaped: encoding/json's
// htmlSafeSet, every printable byte but ", \, <, > and &.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = true
	}
	for _, c := range `"\<>&` {
		safe[c] = false
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string exactly as a default
// json.Encoder does: ", \ and the control bytes escaped (\b \f \n \r \t
// short, the rest \u00XX), <, > and & as \u003c \u003e \u0026, U+2028
// and U+2029 escaped, and each invalid UTF-8 byte as \ufffd.
//
//tpp:hotpath
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
