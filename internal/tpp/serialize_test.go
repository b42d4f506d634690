package tpp

import (
	"bytes"
	"reflect"
	"testing"
)

func TestResultJSONRoundTrip(t *testing.T) {
	p, _ := fig2Problem(t)
	res, err := SGBGreedy(p, 2, Options{Engine: EngineIndexed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResultJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Method != res.Method {
		t.Fatalf("method %q != %q", back.Method, res.Method)
	}
	if !reflect.DeepEqual(back.Protectors, res.Protectors) {
		t.Fatalf("protectors differ: %v vs %v", back.Protectors, res.Protectors)
	}
	if !reflect.DeepEqual(back.SimilarityTrace, res.SimilarityTrace) {
		t.Fatal("traces differ")
	}
	if back.Elapsed != res.Elapsed || len(back.StepElapsed) != len(res.StepElapsed) {
		t.Fatal("timings differ")
	}
}

func TestResultJSONRejectsCorrupt(t *testing.T) {
	for _, in := range []string{
		`{`, // malformed
		`{"method":"x","protectors":[[1,1]],"similarity_trace":[2,1]}`,   // self loop
		`{"method":"x","protectors":[[0,1]],"similarity_trace":[3,2,1]}`, // trace mismatch
	} {
		if _, err := ReadResultJSON(bytes.NewReader([]byte(in))); err == nil {
			t.Fatalf("corrupt input accepted: %s", in)
		}
	}
}
