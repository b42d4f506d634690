package experiments

import (
	"fmt"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/tpp"
)

// Fig3 reproduces paper Fig. 3: the number of existing target subgraphs as
// a function of budget k on the Arenas-email graph, one panel per motif,
// seven method curves, averaged over Repetitions target samplings.
func (c Config) Fig3() ([]FigureResult, error) {
	g := c.arenasGraph()
	return c.qualityFigure("fig3", g, c.ArenasTargets)
}

// Fig4 reproduces paper Fig. 4: the same experiment on the DBLP stand-in.
// Only the scalable variants appear (the paper's plain variants did not
// finish within a week on DBLP; ours share selections with the scalable
// ones by construction, so the curves are identical anyway).
func (c Config) Fig4() ([]FigureResult, error) {
	g := c.dblpGraph()
	return c.qualityFigure("fig4", g, c.DBLPTargets)
}

// qualityFigure runs the Figs. 3–4 protocol on one dataset.
func (c Config) qualityFigure(id string, g *graph.Graph, numTargets int) ([]FigureResult, error) {
	var out []FigureResult
	for _, pattern := range motif.Patterns {
		fr, err := c.qualityPanel(id, g, pattern, numTargets)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s %v: %w", id, pattern, err)
		}
		out = append(out, fr)
		c.printPanel(fr)
	}
	if c.CSVDir != "" {
		if err := writeFigureCSV(c.CSVDir, id, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (c Config) qualityPanel(id string, g *graph.Graph, pattern motif.Pattern, numTargets int) (FigureResult, error) {
	specs := qualityMethods()

	// Pass 1: per repetition, sample targets, open the session every greedy
	// run on that problem selects through, and find k* via SGB so every
	// method is evaluated on the same grid (paper: k from 1 to the budget
	// achieving s(P,T)=0).
	reps := make([]*tpp.Protector, 0, c.Repetitions)
	kMax := 1
	for r := 0; r < c.Repetitions; r++ {
		rng := c.rng(int64(r) + hashID(id, pattern))
		targets := datasets.SampleTargets(g, numTargets, rng)
		pr, err := tpp.New(g, targets, tpp.WithPattern(pattern))
		if err != nil {
			return FigureResult{}, err
		}
		kstar, _, err := criticalBudget(pr)
		if err != nil {
			return FigureResult{}, err
		}
		kMax = max(kMax, kstar)
		reps = append(reps, pr)
	}
	grid := kGrid(kMax, c.QualityPoints)

	fr := FigureResult{ID: id, Pattern: pattern}
	for mi, spec := range specs {
		sums := make([]float64, len(grid))
		for r, pr := range reps {
			rng := c.rng(int64(1000*r+mi) + hashID(id, pattern))
			if spec.perK() {
				for gi, k := range grid {
					res, err := spec.run(pr, k, rng)
					if err != nil {
						return FigureResult{}, err
					}
					sums[gi] += float64(res.FinalSimilarity())
				}
			} else {
				res, err := spec.run(pr, kMax, rng)
				if err != nil {
					return FigureResult{}, err
				}
				for gi, k := range grid {
					sums[gi] += float64(res.SimilarityAt(k))
				}
			}
		}
		s := Series{Method: spec.name, K: grid, Value: make([]float64, len(grid))}
		for gi := range grid {
			s.Value[gi] = sums[gi] / float64(len(reps))
		}
		fr.Series = append(fr.Series, s)
	}
	return fr, nil
}

func (c Config) printPanel(fr FigureResult) {
	c.printf("\n== %s: %v pattern — existing target subgraphs vs budget k ==\n", fr.ID, fr.Pattern)
	c.printf("%-20s", "k")
	for _, k := range fr.Series[0].K {
		c.printf("%8d", k)
	}
	c.printf("\n")
	for _, s := range fr.Series {
		c.printf("%-20s", s.Method)
		for _, v := range s.Value {
			c.printf("%8.1f", v)
		}
		c.printf("\n")
	}
}

// hashID derives a deterministic per-(figure, pattern) seed offset.
func hashID(id string, pattern motif.Pattern) int64 {
	h := int64(17)
	for _, ch := range id {
		h = h*31 + int64(ch)
	}
	return h*7 + int64(pattern)
}
