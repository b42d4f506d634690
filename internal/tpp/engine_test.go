package tpp

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/motif"
)

func TestEngineAndScopeStrings(t *testing.T) {
	if EngineRecount.String() != "recount" || EngineIndexed.String() != "indexed" {
		t.Fatal("engine names wrong")
	}
	if Engine(42).String() != "Engine(42)" {
		t.Fatal("unknown engine formatting wrong")
	}
	if ScopeAllEdges.String() != "all-edges" || ScopeTargetSubgraphs.String() != "restricted" {
		t.Fatal("scope names wrong")
	}
	if Scope(7).String() != "Scope(7)" {
		t.Fatal("unknown scope formatting wrong")
	}
}

func TestVariantName(t *testing.T) {
	if got := ScopeAllEdges.VariantName("SGB-Greedy"); got != "SGB-Greedy" {
		t.Fatalf("plain variant = %q", got)
	}
	if got := ScopeTargetSubgraphs.VariantName("CT-Greedy"); got != "CT-Greedy-R" {
		t.Fatalf("restricted variant = %q", got)
	}
}

func TestRecountEvaluatorGainOfRemovedEdge(t *testing.T) {
	p, _ := fig2Problem(t)
	ev := newRecountEvaluator(p, ScopeAllEdges)
	// An interned edge already removed from the working graph has zero gain
	// and zero gain vector, and deleting it again is a no-op returning 0.
	cands := ev.candidates(nil)
	removed := cands[0]
	if ev.delete(removed) < 0 {
		t.Fatal("negative realised gain")
	}
	if ev.gain(removed) != 0 {
		t.Fatal("removed edge reported positive gain")
	}
	buf := make([]int, len(p.Targets))
	if per, tot := ev.gainVector(removed, buf); per != nil || tot != 0 {
		t.Fatalf("removed edge gain vector = %v,%d", per, tot)
	}
	if ev.delete(removed) != 0 {
		t.Fatal("double delete reported gain")
	}
}

func TestRecountCandidatesShrinkAfterDeletion(t *testing.T) {
	p, _ := fig2Problem(t)
	ev := newRecountEvaluator(p, ScopeTargetSubgraphs)
	cands := ev.candidates(nil)
	before := len(cands)
	// Delete the highest-gain protector: several instances die, so the
	// restricted candidate set re-enumerated from the graph shrinks.
	best := cands[0]
	bestGain := 0
	for _, c := range cands {
		if g := ev.gain(c); g > bestGain {
			best, bestGain = c, g
		}
	}
	ev.delete(best)
	after := len(ev.candidates(nil))
	if after >= before {
		t.Fatalf("restricted candidates did not shrink: %d -> %d", before, after)
	}
}

func TestIndexedEvaluatorDeletedEdgeGains(t *testing.T) {
	p, _ := fig2Problem(t)
	ix, err := motif.NewIndex(p.G, p.Pattern, p.Targets)
	if err != nil {
		t.Fatal(err)
	}
	ev := &indexedEvaluator{ix}
	cands := ev.candidates(nil)
	first := cands[0]
	ev.delete(first)
	if ev.gain(first) != 0 {
		t.Fatal("deleted edge still has gain")
	}
	buf := make([]int, len(p.Targets))
	if per, tot := ev.gainVector(first, buf); per != nil || tot != 0 {
		t.Fatalf("deleted edge gain vector = %v,%d", per, tot)
	}
}

// Ids are evaluator-local (the recount evaluator interns the full phase-1
// graph, the indexed one only the touched W-edges), but the candidate
// *edges* they denote must be identical at step 0 — the invariant that
// makes selections engine-independent.
func TestEvaluatorCandidateEdgesAgree(t *testing.T) {
	p, _ := fig2Problem(t)
	rec := newRecountEvaluator(p, ScopeTargetSubgraphs)
	ix, err := motif.NewIndex(p.G, p.Pattern, p.Targets)
	if err != nil {
		t.Fatal(err)
	}
	idx := &indexedEvaluator{ix}
	toEdges := func(ev evaluator) []graph.Edge {
		ids := ev.candidates(nil)
		out := make([]graph.Edge, len(ids))
		for i, id := range ids {
			out[i] = ev.interner().Edge(id)
		}
		return out
	}
	a, b := toEdges(rec), toEdges(idx)
	if len(a) != len(b) {
		t.Fatalf("candidate counts differ: %d vs %d (%v vs %v)", len(a), len(b), a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("candidate %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPatternAgnosticProblem(t *testing.T) {
	// The same problem solved under every pattern including Pentagon: all
	// runs terminate with zero similarity at the critical budget.
	p, _ := fig2Problem(t)
	for _, pattern := range motif.AllPatterns {
		q := &Problem{G: p.G, Pattern: pattern, Targets: p.Targets}
		for _, eng := range allEngines() {
			_, res, err := eng.critical(q)
			if err != nil {
				t.Fatalf("%v %v: %v", pattern, eng, err)
			}
			if !res.FullProtection() {
				t.Fatalf("%v %v: not fully protected", pattern, eng)
			}
		}
	}
}
