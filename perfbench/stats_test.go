package main

import (
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 99, 7},
		{[]float64{4, 1, 3, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 75, 3},
		{[]float64{4, 1, 3, 2}, 100, 4},
		{[]float64{5, 1, 4, 2, 3}, 50, 3},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 99, 100},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 90, 90},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 1, 10},
	}
	for _, c := range cases {
		if got := percentile(append([]float64(nil), c.xs...), c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
}

func TestMeanAndRatio(t *testing.T) {
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if got := mean(nil); got != 0 {
		t.Errorf("mean(nil) = %v, want 0", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op.delta", Parent: -1, Start: 0, End: 100},                   // 0
		{Name: "tpp.apply", Parent: 0, Start: 10, End: 60},                   // 1
		{Name: "motif.delta_apply", Parent: 1, Start: 10, End: 40},           // 2
		{Name: "tpp.memfootprint", Parent: 0, Start: 50, End: 70},            // 3: overlaps 1 by 10
		{Name: "dynamic.validate", Parent: 0, Start: 0, End: 100, Dup: true}, // 4: dup, never covers
		{Name: "durable.wal_append", Parent: 0, Start: 90, End: 130},         // 5: clipped to the parent's end
	}
	want := []int64{
		100 - (70 - 10) - (100 - 90), // root: children cover [10,70) and [90,100)
		50 - 30,                      // apply minus its stage child
		30,
		20,
		100,
		40,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerMergeRebasesParents(t *testing.T) {
	a := &tracer{spans: []span{{Name: "op.create", Parent: -1}}}
	b := &tracer{spans: []span{{Name: "op.delta", Parent: -1}, {Name: "tpp.apply", Parent: 0}}}
	a.merge(b)
	if a.spans[2].Parent != 1 {
		t.Fatalf("merged child parent = %d, want 1", a.spans[2].Parent)
	}
	if a.spans[1].Parent != -1 {
		t.Fatalf("merged root parent = %d, want -1", a.spans[1].Parent)
	}
}

func TestLayerOfSpan(t *testing.T) {
	if got := (span{Name: "motif.delta_apply"}).layer(); got != "motif" {
		t.Errorf("layer = %q, want motif", got)
	}
}
