package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/graph"
)

// edgeListSeeds cover the canonical shape and every shape the one-pass
// decoder must hand to encoding/json.
var edgeListSeeds = []string{
	`[["a","b"],["b","c"]]`,
	`[]`,
	` [ [ "a" , "b" ] ,` + "\n\t" + `[ "c","d" ] ] `,
	`[["\u00e9","b"]]`,
	`[["\ud83d\ude00","b"]]`,
	`[["\ud83d","b"]]`,
	`[["a\/b","c"]]`,
	`[["a\"b","c"]]`,
	`[["é","😀"]]`,
	"[[\"a\xffb\",\"c\"]]",
	`[[1,"b"]]`,
	`[["a",2.5]]`,
	`[["a"]]`,
	`[["a","b","c"]]`,
	`[[]]`,
	`null`,
	`[null,["a","b"]]`,
	`[["a",null]]`,
	`[[["a"],"b"]]`,
	`[["a","b"]`,
	`[["a","b"],]`,
	`{"a":"b"}`,
	`"ab"`,
	`[["",""]]`,
	`[["[","]"],["[[","b"]]`,
}

// headDecode is the decoder every route used before the one-pass path:
// encoding/json with DisallowUnknownFields, then nothing but whitespace
// after the value; an empty body is accepted only when emptyOK.
func headDecode(body []byte, v any, emptyOK bool) error {
	dec := json.NewDecoder(bytes.NewReader(body))
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

// headIntern is how a create's edge list became a graph before it was
// interned while decoding: labels numbered by first appearance, self loops
// and repeats dropped, the first empty label an error.
func headIntern(pairs [][2]string) ([]graph.Edge, *graph.Labeling, error) {
	lab := &graph.Labeling{ToID: make(map[string]graph.NodeID)}
	intern := func(s string) (graph.NodeID, error) {
		if s == "" {
			return 0, fmt.Errorf("empty node label in edge list")
		}
		if id, ok := lab.ToID[s]; ok {
			return id, nil
		}
		id := graph.NodeID(len(lab.ToName))
		lab.ToID[s] = id
		lab.ToName = append(lab.ToName, s)
		return id, nil
	}
	edges := make([]graph.Edge, 0, len(pairs))
	for _, p := range pairs {
		u, err := intern(p[0])
		if err != nil {
			return nil, nil, err
		}
		v, err := intern(p[1])
		if err != nil {
			return nil, nil, err
		}
		if u != v {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	return edges, lab, nil
}

// Request kinds the parity checks decode: create and one-shot protect
// share protectRequest.
const (
	kindProtect = iota
	kindDelta
	kindSessionProtect
	numKinds
)

func newRequest(kind int) (v wireRequest, emptyOK bool) {
	switch kind {
	case kindProtect:
		return new(protectRequest), false
	case kindDelta:
		return new(deltaRequest), false
	}
	return new(sessionProtectRequest), true
}

// checkDecode decodes body as kind with decodeBody and with headDecode and
// fails unless both accept with equal values and labelling, or both reject
// with the same message. It reports whether the one-pass decoder took the
// body.
func checkDecode(t testing.TB, kind int, body []byte) (canonical bool) {
	t.Helper()
	got, emptyOK := newRequest(kind)
	want, _ := newRequest(kind)
	canonical = reflect.New(reflect.TypeOf(got).Elem()).Interface().(wireRequest).scan(body)
	gotErr := decodeBody(body, nil, got, emptyOK)
	wantErr := headDecode(body, want, emptyOK)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%q: decoded with error %v, encoding/json with %v", body, gotErr, wantErr)
	}
	if gotErr != nil {
		return canonical
	}
	if g, ok := got.(*protectRequest); ok {
		w := want.(*protectRequest)
		g.internEdges()
		checkInterned(t, body, &g.interned, w.Edges)
		g.interned, w.Edges = edgeInterner{}, nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: decoded %+v, encoding/json %+v", body, got, want)
	}
	return canonical
}

// checkInterned fails unless in holds what headIntern makes of pairs.
func checkInterned(t testing.TB, body []byte, in *edgeInterner, pairs [][2]string) {
	t.Helper()
	if in.pairs != len(pairs) {
		t.Fatalf("%q: interned %d pairs, encoding/json decoded %d", body, in.pairs, len(pairs))
	}
	if len(pairs) == 0 {
		return
	}
	edges, lab, err := headIntern(pairs)
	if (in.err == nil) != (err == nil) || (err != nil && in.err.Error() != err.Error()) {
		t.Fatalf("%q: interning error %v, want %v", body, in.err, err)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(in.lab.ToName, lab.ToName) || !reflect.DeepEqual(in.lab.ToID, lab.ToID) {
		t.Fatalf("%q: labelling %v, want %v", body, in.lab.ToName, lab.ToName)
	}
	if !reflect.DeepEqual(in.edges, edges) {
		t.Fatalf("%q: edges %v, want %v", body, in.edges, edges)
	}
}

// kindBody is a body to decode as one request kind.
type kindBody struct {
	kind int
	body []byte
}

// edgeListBodies wraps an edge list in the three bodies that carry one: a
// create's edges and targets, and a delta's insert list.
func edgeListBodies(list []byte) []kindBody {
	return []kindBody{
		{kindProtect, []byte(`{"edges":` + string(list) + `,"targets":[["a","b"]]}`)},
		{kindProtect, []byte(`{"targets":` + string(list) + `,"edges":[["a","b"]]}`)},
		{kindDelta, []byte(`{"insert":` + string(list) + `}`)},
	}
}

// checkEdgeList decodes each body carrying data as its edge list and
// fails unless the one-pass decoder agrees with encoding/json.
func checkEdgeList(t *testing.T, data []byte) {
	t.Helper()
	for _, kb := range edgeListBodies(data) {
		checkDecode(t, kb.kind, kb.body)
	}
}

func TestEdgeListMatchesEncodingJSON(t *testing.T) {
	for _, s := range edgeListSeeds {
		checkEdgeList(t, []byte(s))
	}
}

// TestEdgeListFastPath pins that the canonical shape really skips
// encoding/json, and that what it must not return verbatim does not.
func TestEdgeListFastPath(t *testing.T) {
	for _, s := range []string{`[]`, `[["a","b"]]`, ` [ ["é" , "😀"] ] `, `[["",""]]`} {
		for _, kb := range edgeListBodies([]byte(s)) {
			if !checkDecode(t, kb.kind, kb.body) {
				t.Errorf("%s: not taken by the one-pass decoder", kb.body)
			}
		}
	}
	for _, s := range []string{`[["\u00e9","b"]]`, `[["a\/b","c"]]`, "[[\"a\xffb\",\"c\"]]", `[["a"]]`, `[["a","b","c"]]`, `null`, `[["a",1]]`} {
		for _, kb := range edgeListBodies([]byte(s)) {
			if checkDecode(t, kb.kind, kb.body) {
				t.Errorf("%s: taken by the one-pass decoder", kb.body)
			}
		}
	}
}

// FuzzEdgeListDecode: for any edge list, the bodies carrying it decode to
// what encoding/json decodes them to, or both fail alike.
func FuzzEdgeListDecode(f *testing.F) {
	for _, s := range edgeListSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkEdgeList)
}

// member is one key and raw value of a generated body.
type member struct{ key, value string }

var plainLabels = []string{"a", "b", "v1", "v22", "é", "😀", "x y", "0", "[", "]", ",", ":"}

func randLabel(rng *rand.Rand) string {
	if rng.Intn(10) == 0 {
		return trickyStrings[rng.Intn(len(trickyStrings))]
	}
	return plainLabels[rng.Intn(len(plainLabels))]
}

func rawJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func randPairs(rng *rand.Rand) string {
	pairs := make([][2]string, rng.Intn(6))
	for i := range pairs {
		pairs[i] = [2]string{randLabel(rng), randLabel(rng)}
	}
	return rawJSON(pairs)
}

func randLabels(rng *rand.Rand) string {
	labels := make([]string, rng.Intn(4))
	for i := range labels {
		labels[i] = randLabel(rng)
	}
	return rawJSON(labels)
}

var trickyInts = []string{
	"0", "-0", "7", "-3", "01", "1.0", "1e2", "1E2", "-", "9223372036854775807", "-9223372036854775808",
	"9223372036854775808", "-9223372036854775809", "18446744073709551616", "00", "1.5", "true", `"1"`, "null",
}

func randInt(rng *rand.Rand) string {
	if rng.Intn(4) == 0 {
		return trickyInts[rng.Intn(len(trickyInts))]
	}
	return strconv.FormatInt(rng.Int63n(2000)-1000, 10)
}

func randBool(rng *rand.Rand) string {
	return [...]string{"true", "false", "true", "false", "null", "1", `"true"`, "tru", "falsex"}[rng.Intn(9)]
}

func randText(rng *rand.Rand) string {
	if rng.Intn(8) == 0 {
		return [...]string{"null", "1", `["sgb"]`, `"sgb"`}[rng.Intn(4)]
	}
	return rawJSON([...]string{"sgb", "ct", "dbd", "", "Pentagon", "indexed", randLabel(rng)}[rng.Intn(7)])
}

// requestKeys lists each kind's keys with a value generator.
var requestKeys = [numKinds]map[string]func(*rand.Rand) string{
	kindProtect: {
		"edges": randPairs, "targets": randPairs, "sample_targets": randInt, "pattern": randText,
		"method": randText, "division": randText, "engine": randText, "budget": randInt, "seed": randInt,
		"workers": randInt, "timeout_ms": randInt, "omit_released": randBool,
		"dataset": func(rng *rand.Rand) string { return `{"name":"dblp","scale":` + randInt(rng) + `}` },
	},
	kindDelta: {
		"insert": randPairs, "remove": randPairs, "add_nodes": randLabels, "remove_nodes": randLabels,
		"add_targets": randPairs, "drop_targets": randPairs, "timeout_ms": randInt,
	},
	kindSessionProtect: {
		"method": randText, "division": randText, "engine": randText, "budget": randInt, "seed": randInt,
		"workers": randInt, "timeout_ms": randInt, "omit_released": randBool,
	},
}

var spaces = []string{"", "", "", " ", "\n", "\t ", "\r\n"}

// randBody draws a body of kind: mostly canonical objects of its keys,
// with case-folded, repeated, unknown and null members, odd numbers and
// whitespace mixed in, then sometimes a few byte-level mutations.
func randBody(rng *rand.Rand, kind int) []byte {
	keys := make([]string, 0, len(requestKeys[kind]))
	for k := range requestKeys[kind] {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var ms []member
	for _, k := range keys {
		if rng.Intn(3) == 0 {
			ms = append(ms, member{k, requestKeys[kind][k](rng)})
		}
	}
	rng.Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
	if len(ms) > 0 && rng.Intn(8) == 0 {
		switch i := rng.Intn(len(ms)); rng.Intn(4) {
		case 0:
			ms[i].key = strings.ToUpper(ms[i].key)
		case 1:
			ms = append(ms, member{ms[i].key, requestKeys[kind][ms[i].key](rng)})
		case 2:
			ms[i].value = "null"
		case 3:
			ms = append(ms, member{"bogus", "1"})
		}
	}
	sp := func() string { return spaces[rng.Intn(len(spaces))] }
	var b strings.Builder
	b.WriteString(sp() + "{")
	for i, m := range ms {
		if i > 0 {
			b.WriteString(sp() + ",")
		}
		b.WriteString(sp() + rawJSON(m.key) + sp() + ":" + sp() + m.value)
	}
	b.WriteString(sp() + "}" + sp())
	body := []byte(b.String())
	if rng.Intn(6) == 0 {
		body = mutate(rng, body)
	}
	return body
}

// mutate applies one to three byte-level edits.
func mutate(rng *rand.Rand, b []byte) []byte {
	for n := 1 + rng.Intn(3); n > 0 && len(b) > 0; n-- {
		i := rng.Intn(len(b))
		switch rng.Intn(5) {
		case 0:
			b = b[:i]
		case 1:
			b = append(b[:i:i], b[i+1:]...)
		case 2:
			const alphabet = "{}[],:\"\\ 0-1.eEn\x00\xff"
			b[i] = alphabet[rng.Intn(len(alphabet))]
		case 3:
			b = append(b[:i:i], append([]byte(`\"`[rng.Intn(2):]), b[i:]...)...)
		case 4:
			b = append(b, b[i:]...)
		}
	}
	return b
}

// TestRequestDecodeParity: for random and mutated bodies of all three
// request types, the one-pass decoder accepts exactly when encoding/json
// (with DisallowUnknownFields and the trailing check) accepts, with equal
// values and labelling, and rejects with its message otherwise.
func TestRequestDecodeParity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var canonical, accepted [numKinds]int
	for i := 0; i < 30000; i++ {
		kind := i % numKinds
		body := randBody(rng, kind)
		if checkDecode(t, kind, body) {
			canonical[kind]++
		}
		v, emptyOK := newRequest(kind)
		if decodeBody(body, nil, v, emptyOK) == nil {
			accepted[kind]++
		}
	}
	for kind := range canonical {
		if canonical[kind] < 1000 || accepted[kind]-canonical[kind] < 100 {
			t.Errorf("kind %d: %d bodies took the one-pass decoder and %d more were accepted by encoding/json; the draw must exercise both",
				kind, canonical[kind], accepted[kind]-canonical[kind])
		}
	}
}

// FuzzRequestDecode: for any body of any request type, the one-pass
// decoder and encoding/json agree, as in TestRequestDecodeParity.
func FuzzRequestDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 24; i++ {
		f.Add(uint8(i%numKinds), randBody(rng, i%numKinds))
	}
	f.Add(uint8(kindSessionProtect), []byte(""))
	f.Add(uint8(kindProtect), []byte(`{"edges":[["a","b"]],"targets":[["a","b"]],"budget":1e2}`))
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		checkDecode(t, int(kind%numKinds), body)
	})
}
