package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/tpp"
)

// Running-time figures. One selection run per method at the maximum budget
// yields the whole curve: Result.StepElapsed records the cumulative
// wall-clock time at each committed protector, which is the paper's
// "running time with budget k" (greedy selection is incremental). For
// CT/WT the budget division is computed at the maximum budget — the
// division affects which protectors are charged where, not the per-step
// scan cost that the figure measures (see README, "Paper artefacts").

// timingSpec is one running-time curve: run selects with budget k on the
// panel's problem p, sampled from graph g.
type timingSpec struct {
	name string
	run  func(g *graph.Graph, p *tpp.Problem, k int, rng *rand.Rand) (*tpp.Result, error)
}

// recountTimed times a recount free function in the given scope: SGB, or
// CT/WT under the TBD division.
func recountTimed(m tpp.Method, scope tpp.Scope) func(*graph.Graph, *tpp.Problem, int, *rand.Rand) (*tpp.Result, error) {
	return func(_ *graph.Graph, p *tpp.Problem, k int, _ *rand.Rand) (*tpp.Result, error) {
		if m == tpp.MethodSGB {
			return tpp.SGBGreedy(p, k, scope)
		}
		budgets, err := tpp.TBDForProblem(p, k)
		if err != nil {
			return nil, err
		}
		if m == tpp.MethodWT {
			return tpp.WTGreedy(p, budgets, scope)
		}
		return tpp.CTGreedy(p, budgets, scope)
	}
}

// sessionTimed times a greedy method (SGB, or CT/WT under the TBD
// division) on a fresh session, so every curve is a cold selection: the
// session builds its motif index before the selection clock starts.
func sessionTimed(m tpp.Method) func(*graph.Graph, *tpp.Problem, int, *rand.Rand) (*tpp.Result, error) {
	return func(g *graph.Graph, p *tpp.Problem, k int, _ *rand.Rand) (*tpp.Result, error) {
		pr, err := tpp.New(g, p.Targets, tpp.WithPattern(p.Pattern))
		if err != nil {
			return nil, err
		}
		return pr.Run(context.Background(), tpp.WithMethod(m), tpp.WithDivision(tpp.DivisionTBD), tpp.WithBudget(k))
	}
}

// randomTimed are the RD and RDT curves, free functions on the problem.
var randomTimed = []timingSpec{
	{name: "RD", run: func(_ *graph.Graph, p *tpp.Problem, k int, rng *rand.Rand) (*tpp.Result, error) {
		return tpp.RandomDeletion(p, k, rng)
	}},
	{name: "RDT", run: func(_ *graph.Graph, p *tpp.Problem, k int, rng *rand.Rand) (*tpp.Result, error) {
		return tpp.RandomDeletionFromTargets(p, k, rng)
	}},
}

// timingMethodsFig5 lists the eight curves of paper Fig. 5: every plain
// greedy (recount, all-edges scan) against its Lemma 5 restricted variant
// (recount, target-subgraph candidates), plus RD and RDT.
func timingMethodsFig5() []timingSpec {
	naive, restr := tpp.ScopeAllEdges, tpp.ScopeTargetSubgraphs
	return append([]timingSpec{
		{name: "SGB-Greedy-R", run: recountTimed(tpp.MethodSGB, restr)},
		{name: "SGB-Greedy", run: recountTimed(tpp.MethodSGB, naive)},
		{name: "CT-Greedy-R", run: recountTimed(tpp.MethodCT, restr)},
		{name: "CT-Greedy", run: recountTimed(tpp.MethodCT, naive)},
		{name: "WT-Greedy-R", run: recountTimed(tpp.MethodWT, restr)},
		{name: "WT-Greedy", run: recountTimed(tpp.MethodWT, naive)},
	}, randomTimed...)
}

// timingMethodsFig6 lists the five curves of paper Fig. 6 (DBLP): only the
// scalable variants run at this scale, exactly as in the paper. Our
// scalable implementation is a session's motif index (strictly stronger
// than the paper's restricted recount, which Fig. 5 times).
func timingMethodsFig6() []timingSpec {
	return append([]timingSpec{
		{name: "SGB-Greedy-R", run: sessionTimed(tpp.MethodSGB)},
		{name: "CT-Greedy-R", run: sessionTimed(tpp.MethodCT)},
		{name: "WT-Greedy-R", run: sessionTimed(tpp.MethodWT)},
	}, randomTimed...)
}

// Fig5 reproduces paper Fig. 5: running time versus budget k on the
// Arenas-email stand-in, plain greedy versus scalable variants.
func (c Config) Fig5() ([]FigureResult, error) {
	return c.timingFigure("fig5", c.arenasGraph(), c.ArenasTargets, timingMethodsFig5())
}

// Fig6 reproduces paper Fig. 6: running time versus budget k on the DBLP
// stand-in, scalable variants and random baselines only.
func (c Config) Fig6() ([]FigureResult, error) {
	return c.timingFigure("fig6", c.dblpGraph(), c.DBLPTargets, timingMethodsFig6())
}

func (c Config) timingFigure(id string, g *graph.Graph, numTargets int, specs []timingSpec) ([]FigureResult, error) {
	var out []FigureResult
	for _, pattern := range motif.Patterns {
		rng := c.rng(hashID(id, pattern))
		targets := datasets.SampleTargets(g, numTargets, rng)
		p, err := tpp.NewProblem(g, pattern, targets)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s %v: %w", id, pattern, err)
		}
		grid := kGrid(c.TimeBudget, 6)
		fr := FigureResult{ID: id, Pattern: pattern}
		for _, spec := range specs {
			res, err := spec.run(g, p, c.TimeBudget, rng)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s %v %s: %w", id, pattern, spec.name, err)
			}
			s := Series{Method: spec.name, K: grid, Value: make([]float64, len(grid))}
			for gi, k := range grid {
				s.Value[gi] = res.ElapsedAt(k).Seconds()
			}
			fr.Series = append(fr.Series, s)
		}
		out = append(out, fr)
		c.printTimingPanel(fr)
	}
	if c.CSVDir != "" {
		if err := writeFigureCSV(c.CSVDir, id, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (c Config) printTimingPanel(fr FigureResult) {
	c.printf("\n== %s: %v pattern — running time (seconds) vs budget k ==\n", fr.ID, fr.Pattern)
	c.printf("%-20s", "k")
	for _, k := range fr.Series[0].K {
		c.printf("%12d", k)
	}
	c.printf("\n")
	for _, s := range fr.Series {
		c.printf("%-20s", s.Method)
		for _, v := range s.Value {
			c.printf("%12.6f", v)
		}
		c.printf("\n")
	}
}
