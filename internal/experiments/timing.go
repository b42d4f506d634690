package experiments

import (
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
// scan cost that the figure measures (see EXPERIMENTS.md).

// timingSpec is one running-time curve.
type timingSpec struct {
	name string
	run  func(p *tpp.Problem, k int, rng *rand.Rand) (*tpp.Result, error)
}

func ctwtTimed(opt tpp.Options, wt bool) func(p *tpp.Problem, k int, rng *rand.Rand) (*tpp.Result, error) {
	return func(p *tpp.Problem, k int, _ *rand.Rand) (*tpp.Result, error) {
		budgets, err := tpp.TBDForProblem(p, k)
		if err != nil {
			return nil, err
		}
		if wt {
			return tpp.WTGreedy(p, budgets, opt)
		}
		return tpp.CTGreedy(p, budgets, opt)
	}
}

func sgbTimed(opt tpp.Options) func(p *tpp.Problem, k int, rng *rand.Rand) (*tpp.Result, error) {
	return func(p *tpp.Problem, k int, _ *rand.Rand) (*tpp.Result, error) {
		return tpp.SGBGreedy(p, k, opt)
	}
}

// timingMethodsFig5 lists the eight curves of paper Fig. 5: every plain
// greedy (recount engine, all-edges scan) against its Lemma 5 restricted
// variant (recount engine, target-subgraph candidates), plus RD and RDT.
func timingMethodsFig5() []timingSpec {
	naive := tpp.Options{Engine: tpp.EngineRecount, Scope: tpp.ScopeAllEdges}
	restr := tpp.Options{Engine: tpp.EngineRecount, Scope: tpp.ScopeTargetSubgraphs}
	return []timingSpec{
		{name: "SGB-Greedy-R", run: sgbTimed(restr)},
		{name: "SGB-Greedy", run: sgbTimed(naive)},
		{name: "CT-Greedy-R", run: ctwtTimed(restr, false)},
		{name: "CT-Greedy", run: ctwtTimed(naive, false)},
		{name: "WT-Greedy-R", run: ctwtTimed(restr, true)},
		{name: "WT-Greedy", run: ctwtTimed(naive, true)},
		{name: "RD", run: func(p *tpp.Problem, k int, rng *rand.Rand) (*tpp.Result, error) {
			return tpp.RandomDeletion(p, k, rng)
		}},
		{name: "RDT", run: func(p *tpp.Problem, k int, rng *rand.Rand) (*tpp.Result, error) {
			return tpp.RandomDeletionFromTargets(p, k, rng)
		}},
	}
}

// timingMethodsFig6 lists the five curves of paper Fig. 6 (DBLP): only the
// scalable variants run at this scale, exactly as in the paper. Our
// scalable implementation is the inverted-index engine (strictly stronger
// than the paper's restricted recount, which Fig. 5 times).
func timingMethodsFig6() []timingSpec {
	fast := tpp.Options{Engine: tpp.EngineIndexed, Scope: tpp.ScopeTargetSubgraphs}
	return []timingSpec{
		{name: "SGB-Greedy-R", run: sgbTimed(fast)},
		{name: "CT-Greedy-R", run: ctwtTimed(fast, false)},
		{name: "WT-Greedy-R", run: ctwtTimed(fast, true)},
		{name: "RD", run: func(p *tpp.Problem, k int, rng *rand.Rand) (*tpp.Result, error) {
			return tpp.RandomDeletion(p, k, rng)
		}},
		{name: "RDT", run: func(p *tpp.Problem, k int, rng *rand.Rand) (*tpp.Result, error) {
			return tpp.RandomDeletionFromTargets(p, k, rng)
		}},
	}
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
			res, err := spec.run(p, c.TimeBudget, rng)
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
