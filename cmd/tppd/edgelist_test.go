package main

import (
	"encoding/json"
	"reflect"
	"testing"
)

// edgeListSeeds cover the canonical shape and every shape the fast path
// must hand to encoding/json.
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

// checkEdgeList decodes data as an edgeList and as a plain [][2]string and
// fails unless both give the same value or both fail.
func checkEdgeList(t *testing.T, data []byte) {
	t.Helper()
	var got edgeList
	gotErr := json.Unmarshal(data, &got)
	var want [][2]string
	wantErr := json.Unmarshal(data, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: edgeList error %v, [][2]string error %v", data, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual([][2]string(got), want) {
		t.Fatalf("%q: edgeList %#v, [][2]string %#v", data, got, want)
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
	for _, s := range []string{`[]`, `[["a","b"]]`, ` [ ["é" , "😀"] ] `} {
		if _, ok := parsePairs([]byte(s)); !ok {
			t.Errorf("%q: not parsed by the fast path", s)
		}
	}
	for _, s := range []string{`[["\u00e9","b"]]`, `[["a\/b","c"]]`, "[[\"a\xffb\",\"c\"]]", `[["a"]]`, `[["a","b","c"]]`, `null`, `[["a",1]]`} {
		if _, ok := parsePairs([]byte(s)); ok {
			t.Errorf("%q: taken by the fast path", s)
		}
	}
}

// FuzzEdgeListDecode: for any input, an edgeList decodes to what a plain
// [][2]string decodes to, or both fail.
func FuzzEdgeListDecode(f *testing.F) {
	for _, s := range edgeListSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkEdgeList)
}
