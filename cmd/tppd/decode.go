package main

// Request decoding. A body is read once, at most -max-body bytes, into a
// pooled buffer and decoded in one pass when it has the canonical shape:
// one object of exact-case known keys, each at most once, whose values are
// escape-free strings, plain in-range integers, booleans and [["a","b"],…]
// lists. Every other body (escapes, case-folded or repeated keys, null,
// numbers with a fraction or exponent, nested objects, a read error or an
// over-long body) is decoded by encoding/json with DisallowUnknownFields
// and the trailing-data check. The canonical path takes a body only where
// encoding/json would produce the same value, so no accept/reject
// decision, status or message depends on which path ran.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"unicode/utf8"

	"repro/internal/graph"
)

// wireRequest is a request body with a canonical-shape decoder.
type wireRequest interface {
	// scan decodes body into the receiver and reports true if body has
	// the canonical shape; otherwise it leaves the receiver untouched.
	scan(body []byte) bool
}

// maxPooledBody caps the body buffers decode hands back to its pool, as
// maxPooledJSONBuf caps the reply buffers. The bodies that repeat per
// operation (deltas, session protects, small creates) stay well under it;
// a large create body's buffer is left to the GC, since once pooled it
// would stay resident, handed from one small request to the next.
const maxPooledBody = 64 << 10

var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// decode is the pipeline's one request decoder. It reads the body once (at
// most -max-body bytes) and decodes exactly one JSON value into v: no
// unknown fields and nothing but whitespace after the value. An empty body
// is accepted only when emptyOK (a session protect with the session's
// defaults). Anything else is answered 400 and decode reports false.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v wireRequest, emptyOK bool) bool {
	buf := bodyPool.Get().(*[]byte)
	body, readErr := readBody(http.MaxBytesReader(w, r.Body, s.maxBody), (*buf)[:0], r.ContentLength, s.maxBody)
	err := decodeBody(body, readErr, v, emptyOK)
	if cap(body) <= maxPooledBody {
		*buf = body
		bodyPool.Put(buf)
	}
	if err != nil {
		writeRunError(w, badRequest{fmt.Errorf("decoding request: %w", err)})
		return false
	}
	return true
}

// readBody appends everything src yields to buf and returns it with the
// error that ended the read early (nil at EOF). A Content-Length within the
// limit sizes buf once, with a spare byte so the read that sees EOF does
// not grow it.
func readBody(src io.Reader, buf []byte, contentLength, limit int64) ([]byte, error) {
	if contentLength > 0 && contentLength <= limit {
		buf = slices.Grow(buf, int(contentLength)+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
		n, err := src.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeBody decodes body, whose read ended with readErr, into v. A
// complete canonical body takes v's one-pass decoder; anything else goes
// to encoding/json exactly as if it read the body itself: the same bytes,
// then the same read error.
func decodeBody(body []byte, readErr error, v wireRequest, emptyOK bool) error {
	if readErr == nil && v.scan(body) {
		return nil
	}
	var src io.Reader = bytes.NewReader(body)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	switch {
	case err == nil:
		if _, err = dec.Token(); err == io.EOF {
			return nil
		}
		return errors.New("unexpected data after the JSON value")
	case emptyOK && errors.Is(err, io.EOF):
		return nil
	}
	return err
}

// errReader replays the error that ended a body read.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// edgeList is a [][2]string that encoding/json decodes as a whole: a
// mistyped list is reported as the list's error and ends the decode, as
// the wire has always reported it.
type edgeList [][2]string

// UnmarshalJSON implements json.Unmarshaler.
func (l *edgeList) UnmarshalJSON(data []byte) error {
	return json.Unmarshal(data, (*[][2]string)(l))
}

// scanner reads one canonical body. The first byte outside the canonical
// shape clears ok, and the caller then discards whatever was read.
type scanner struct {
	b  []byte
	i  int
	ok bool
	// keys are the object's keys so far. No request type has more fields,
	// so a body with more keys repeats one or has an unknown one.
	keys  [16][]byte
	nkeys int
}

// space skips JSON whitespace.
//
//tpp:hotpath
func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// want consumes c after optional whitespace.
//
//tpp:hotpath
func (s *scanner) want(c byte) {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return
	}
	s.ok = false
}

// more reports whether the open list or object has another element (first
// is true before the first), consuming the comma before it or the closer
// after the last.
//
//tpp:hotpath
func (s *scanner) more(closer byte, first bool) bool {
	s.space()
	if !s.ok || s.i == len(s.b) {
		s.ok = false
		return false
	}
	switch c := s.b[s.i]; {
	case c == closer:
		s.i++
		return false
	case first:
		return true
	case c == ',':
		s.i++
		return true
	}
	s.ok = false
	return false
}

// done reports whether the whole body was one canonical value.
//
//tpp:hotpath
func (s *scanner) done() bool {
	s.space()
	return s.ok && s.i == len(s.b)
}

// str reads a string encoding/json would decode verbatim: no escape, no
// control byte, valid UTF-8. The result aliases the body.
//
//tpp:hotpath
func (s *scanner) str() []byte {
	s.want('"')
	if !s.ok {
		return nil
	}
	start, ascii := s.i, true
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			v := s.b[start:s.i]
			s.i++
			if !ascii && !utf8.Valid(v) {
				s.ok = false
			}
			return v
		case c == '\\' || c < 0x20:
			s.ok = false
			return nil
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	s.ok = false
	return nil
}

// key reads an object key and its colon. A key the object already had is
// outside the canonical shape (encoding/json lets the last one win).
//
//tpp:hotpath
func (s *scanner) key() []byte {
	k := s.str()
	s.want(':')
	for _, prev := range s.keys[:s.nkeys] {
		if bytes.Equal(prev, k) {
			s.ok = false
		}
	}
	if s.nkeys == len(s.keys) {
		s.ok = false
		return k
	}
	s.keys[s.nkeys] = k
	s.nkeys++
	return k
}

// integer reads a plain JSON integer (no fraction, no exponent) that fits
// an int64.
//
//tpp:hotpath
func (s *scanner) integer() int64 {
	s.space()
	i := s.i
	neg := i < len(s.b) && s.b[i] == '-'
	if neg {
		i++
	}
	start := i
	var n uint64
	for ; i < len(s.b) && i-start < 20 && '0' <= s.b[i] && s.b[i] <= '9'; i++ {
		n = n*10 + uint64(s.b[i]-'0')
	}
	digits := i - start
	limit := uint64(1<<63 - 1)
	if neg {
		limit++
	}
	if digits == 0 || digits > 19 || (digits > 1 && s.b[start] == '0') || n > limit {
		s.ok = false
		return 0
	}
	s.i = i
	if neg {
		return int64(-n)
	}
	return int64(n)
}

// intValue reads a plain integer that fits an int.
//
//tpp:hotpath
func (s *scanner) intValue() int {
	n := s.integer()
	if int64(int(n)) != n {
		s.ok = false
	}
	return int(n)
}

var jsonTrue, jsonFalse = []byte("true"), []byte("false")

// boolean reads true or false.
//
//tpp:hotpath
func (s *scanner) boolean() bool {
	s.space()
	switch rest := s.b[s.i:]; {
	case bytes.HasPrefix(rest, jsonTrue):
		s.i += len(jsonTrue)
		return true
	case bytes.HasPrefix(rest, jsonFalse):
		s.i += len(jsonFalse)
		return false
	}
	s.ok = false
	return false
}

// pair reads one ["a","b"] list entry.
//
//tpp:hotpath
func (s *scanner) pair() (a, b []byte) {
	s.want('[')
	a = s.str()
	s.want(',')
	b = s.str()
	s.want(']')
	return a, b
}

// text reads a string value as an owned string.
func (s *scanner) text() string {
	return string(s.str())
}

// texts reads a list of strings.
func (s *scanner) texts() []string {
	out := []string{}
	s.want('[')
	for first := true; s.more(']', first); first = false {
		out = append(out, s.text())
	}
	return out
}

// pairs reads a [["a","b"],…] list as owned strings.
func (s *scanner) pairs() [][2]string {
	out := [][2]string{}
	s.want('[')
	for first := true; s.more(']', first); first = false {
		a, b := s.pair()
		out = append(out, [2]string{string(a), string(b)})
	}
	return out
}

// edgeInterner builds a create body's graph while its edge list is
// decoded, mirroring graph.ReadEdgeList's tolerance: labels are numbered
// by first appearance, self loops and repeated edges are dropped. A label
// is copied out of the body the first time it is seen; every later sight
// is one map lookup that does not allocate.
type edgeInterner struct {
	lab   *graph.Labeling
	edges []graph.Edge
	pairs int   // pairs decoded, self loops and repeats included
	err   error // the first empty label, reported when the graph is built
}

var errEmptyLabel = errors.New("empty node label in edge list")

// Sizing hints for a canonical edge list from the bytes left in the body:
// a DBLP-like list spends about 17 bytes per pair (["v123","v1456"],) and
// names a new node every 50 or so. A hint only saves growth, so both err
// low rather than pin capacity the list never uses.
const (
	bodyBytesPerPair = 16
	bodyBytesPerNode = 64
)

// start makes the label table and edge slice, sized for about n bytes of
// list.
func (in *edgeInterner) start(n int) {
	in.lab = &graph.Labeling{ToID: make(map[string]graph.NodeID, n/bodyBytesPerNode)}
	in.edges = make([]graph.Edge, 0, n/bodyBytesPerPair)
}

// scan reads a canonical edge list into the interner.
//
//tpp:hotpath
func (in *edgeInterner) scan(s *scanner) {
	in.start(len(s.b) - s.i)
	s.want('[')
	for first := true; s.more(']', first); first = false {
		a, b := s.pair()
		if s.ok {
			in.add(a, b)
		}
	}
}

// add interns one pair.
//
//tpp:hotpath
func (in *edgeInterner) add(a, b []byte) {
	in.pairs++
	if in.err != nil {
		return
	}
	u := in.id(a)
	v := in.id(b)
	if in.err == nil && u != v {
		in.edges = append(in.edges, graph.Edge{U: u, V: v})
	}
}

// id returns the label's node, numbering a new one.
//
//tpp:hotpath
func (in *edgeInterner) id(label []byte) graph.NodeID {
	if len(label) == 0 {
		if in.err == nil {
			in.err = errEmptyLabel
		}
		return 0
	}
	if id, ok := in.lab.ToID[string(label)]; ok { //lint:hotalloc-ok a map index by string(b) does not copy
		return id
	}
	name := string(label) //lint:hotalloc-ok each label is copied once, the first time it is seen
	id := graph.NodeID(len(in.lab.ToName))
	in.lab.ToID[name] = id
	in.lab.ToName = append(in.lab.ToName, name)
	return id
}

// graph builds the interned graph in one graph.FromEdges pass.
func (in *edgeInterner) graph() (*graph.Graph, *graph.Labeling, error) {
	if in.err != nil {
		return nil, nil, in.err
	}
	return graph.FromEdges(len(in.lab.ToName), in.edges), in.lab, nil
}

// scan implements wireRequest. The edge list is interned as it is read,
// so no [][2]string is built for it.
//
//tpp:hotpath
func (r *protectRequest) scan(body []byte) bool {
	s := scanner{b: body, ok: true}
	var q protectRequest
	s.want('{')
	for first := true; s.more('}', first); first = false {
		switch string(s.key()) { //lint:hotalloc-ok a switch on string(b) compares in place
		case "edges":
			q.interned.scan(&s)
		case "targets":
			q.Targets = s.pairs()
		case "sample_targets":
			q.SampleTargets = s.intValue()
		case "pattern":
			q.Pattern = s.text()
		case "method":
			q.Method = s.text()
		case "division":
			q.Division = s.text()
		case "engine":
			q.Engine = s.text()
		case "budget":
			q.Budget = s.intValue()
		case "seed":
			q.Seed = s.integer()
		case "workers":
			q.Workers = s.intValue()
		case "timeout_ms":
			q.TimeoutMS = s.integer()
		case "omit_released":
			q.OmitReleased = s.boolean()
		default:
			s.ok = false
		}
	}
	if !s.done() {
		return false
	}
	*r = q
	return true
}

// internEdges moves an edge list encoding/json decoded into Edges through
// the same interner a canonical one went through.
func (r *protectRequest) internEdges() {
	if r.Edges == nil {
		return
	}
	r.interned.start(0)
	for _, p := range r.Edges {
		r.interned.add([]byte(p[0]), []byte(p[1]))
	}
	r.Edges = nil
}

// scan implements wireRequest.
//
//tpp:hotpath
func (r *deltaRequest) scan(body []byte) bool {
	s := scanner{b: body, ok: true}
	var q deltaRequest
	s.want('{')
	for first := true; s.more('}', first); first = false {
		switch string(s.key()) { //lint:hotalloc-ok a switch on string(b) compares in place
		case "insert":
			q.Insert = s.pairs()
		case "remove":
			q.Remove = s.pairs()
		case "add_nodes":
			q.AddNodes = s.texts()
		case "remove_nodes":
			q.RemoveNodes = s.texts()
		case "add_targets":
			q.AddTargets = s.pairs()
		case "drop_targets":
			q.DropTargets = s.pairs()
		case "timeout_ms":
			q.TimeoutMS = s.integer()
		default:
			s.ok = false
		}
	}
	if !s.done() {
		return false
	}
	*r = q
	return true
}

// scan implements wireRequest.
//
//tpp:hotpath
func (r *sessionProtectRequest) scan(body []byte) bool {
	s := scanner{b: body, ok: true}
	var q sessionProtectRequest
	s.want('{')
	for first := true; s.more('}', first); first = false {
		switch string(s.key()) { //lint:hotalloc-ok a switch on string(b) compares in place
		case "method":
			q.Method = s.text()
		case "division":
			q.Division = s.text()
		case "engine":
			q.Engine = s.text()
		case "budget":
			budget := s.intValue()
			q.Budget = &budget
		case "seed":
			seed := s.integer()
			q.Seed = &seed
		case "workers":
			workers := s.intValue()
			q.Workers = &workers
		case "timeout_ms":
			q.TimeoutMS = s.integer()
		case "omit_released":
			q.OmitReleased = s.boolean()
		default:
			s.ok = false
		}
	}
	if !s.done() {
		return false
	}
	*r = q
	return true
}
