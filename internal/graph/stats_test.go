package graph

import (
	"math"
	"strings"
	"testing"
)

func pathGraph(n int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(NodeID(v-1), NodeID(v))
	}
	return g
}

func completeGraph(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(NodeID(u), NodeID(v))
		}
	}
	return g
}

func TestDensity(t *testing.T) {
	if got := completeGraph(5).Density(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("density(K5) = %v, want 1", got)
	}
	if got := New(5).Density(); got != 0 {
		t.Fatalf("density(empty) = %v, want 0", got)
	}
	if got := New(1).Density(); got != 0 {
		t.Fatalf("density(single node) = %v, want 0", got)
	}
}

func TestMeanDegree(t *testing.T) {
	if got := completeGraph(4).MeanDegree(); got != 3 {
		t.Fatalf("mean degree K4 = %v, want 3", got)
	}
	if got := New(0).MeanDegree(); got != 0 {
		t.Fatalf("mean degree of null graph = %v", got)
	}
}

func TestDegreeQuantile(t *testing.T) {
	g := pathGraph(5) // degrees 1,2,2,2,1
	if got := g.DegreeQuantile(0.5); got != 2 {
		t.Fatalf("median degree = %d, want 2", got)
	}
	if got := g.DegreeQuantile(0); got != 1 {
		t.Fatalf("min-quantile = %d, want 1", got)
	}
	if got := g.DegreeQuantile(1); got != 2 {
		t.Fatalf("max-quantile = %d, want 2", got)
	}
	// Out-of-range q clamps.
	if got := g.DegreeQuantile(-3); got != 1 {
		t.Fatalf("clamped quantile = %d", got)
	}
	if got := New(0).DegreeQuantile(0.5); got != 0 {
		t.Fatalf("empty-graph quantile = %d", got)
	}
}

func TestApproxDiameter(t *testing.T) {
	// Exact on paths: diameter of P6 is 5 from any start.
	g := pathGraph(6)
	for s := 0; s < 6; s++ {
		if got := g.ApproxDiameter(NodeID(s)); got != 5 {
			t.Fatalf("diameter from %d = %d, want 5", s, got)
		}
	}
	if got := completeGraph(4).ApproxDiameter(0); got != 1 {
		t.Fatalf("diameter K4 = %d, want 1", got)
	}
	if got := New(3).ApproxDiameter(0); got != 0 {
		t.Fatalf("diameter of edgeless graph = %d, want 0", got)
	}
}

func TestSummary(t *testing.T) {
	g := pathGraph(4)
	g.AddNode() // isolated node 4
	s := g.Summary()
	if s.Nodes != 5 || s.Edges != 3 {
		t.Fatalf("summary counts wrong: %+v", s)
	}
	if s.Components != 2 {
		t.Fatalf("components = %d, want 2", s.Components)
	}
	if math.Abs(s.GiantFraction-0.8) > 1e-12 {
		t.Fatalf("giant fraction = %v, want 0.8", s.GiantFraction)
	}
	if s.ApproxDiameter != 3 {
		t.Fatalf("diameter = %d, want 3", s.ApproxDiameter)
	}
	if !strings.Contains(s.String(), "n=5 m=3") {
		t.Fatalf("stats string = %q", s.String())
	}
	// Null graph summary must not panic.
	if got := New(0).Summary(); got.Nodes != 0 {
		t.Fatalf("null summary = %+v", got)
	}
}
