package experiments

import (
	"repro/internal/anonymize"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/linkpred"
	"repro/internal/metrics"
	"repro/internal/motif"
	"repro/internal/tpp"
)

// Extension experiments beyond the paper's figures, substantiating two of
// its discussion claims:
//
//   - Ext1: traditional structural-level anonymization (the related work
//     of Sec. II) either leaves targets verbatim in the release or costs
//     far more utility than TPP at the same perturbation scale — the
//     motivation of the whole paper, measured.
//   - Ext2: the Katz-based defense (future work #1, Sec. VII) — the greedy
//     heuristic drives the Katz adversary's score down monotonically even
//     though no submodularity guarantee exists.

// Ext1Row is one mechanism's outcome in the structural comparison.
type Ext1Row struct {
	Mechanism string
	// Exposure is the fraction of targets present verbatim in the release.
	Exposure float64
	// ResidualSimilarity is Σ_t s(t) on the release for targets absent from
	// it (motif-recoverability of the hidden/deleted targets).
	ResidualSimilarity int
	// UtilityLoss is the mean utility-loss ratio versus the original.
	UtilityLoss float64
	// EdgesChanged counts edge modifications (deletions + additions).
	EdgesChanged int
}

// Ext1Result is the structural-baseline comparison for one pattern.
type Ext1Result struct {
	Pattern motif.Pattern
	Rows    []Ext1Row
}

// Ext1StructuralComparison runs TPP to full protection, then grants each
// traditional mechanism the same edge-modification budget and compares
// target exposure, motif recoverability and utility loss.
func (c Config) Ext1StructuralComparison() ([]Ext1Result, error) {
	g := c.arenasGraph()
	var out []Ext1Result
	for _, pattern := range motif.Patterns {
		rng := c.rng(hashID("ext1", pattern))
		targets := datasets.SampleTargets(g, c.ArenasTargets, rng)
		pr, err := tpp.New(g, targets, tpp.WithPattern(pattern))
		if err != nil {
			return nil, err
		}
		kstar, res, err := criticalBudget(pr)
		if err != nil {
			return nil, err
		}
		budget := len(targets) + kstar // total modifications TPP performed
		origVals := metrics.Compute(g, metrics.LargeGraphMetrics, c.rng(hashID("ext1m", pattern)))

		er := Ext1Result{Pattern: pattern}

		// TPP row.
		released := pr.Release(res)
		relVals := metrics.Compute(released, metrics.LargeGraphMetrics, c.rng(hashID("ext1m", pattern)))
		_, loss := metrics.AverageUtilityLoss(origVals, relVals)
		residual, _ := motif.CountAll(released, pattern, targets)
		er.Rows = append(er.Rows, Ext1Row{
			Mechanism:          "TPP (SGB-Greedy)",
			Exposure:           anonymize.Exposure(released, targets),
			ResidualSimilarity: residual,
			UtilityLoss:        loss,
			EdgesChanged:       budget,
		})

		// Structural baselines at the same modification budget.
		for _, m := range anonymize.Mechanisms {
			rel, err := anonymize.Apply(m, g, budget, c.rng(hashID("ext1r", pattern)+int64(m)))
			if err != nil {
				return nil, err
			}
			relVals := metrics.Compute(rel, metrics.LargeGraphMetrics, c.rng(hashID("ext1m", pattern)))
			_, loss := metrics.AverageUtilityLoss(origVals, relVals)
			// Recoverability of targets not present verbatim: motif count
			// on the release (present targets are already fully exposed).
			residual := 0
			for _, t := range targets {
				if !rel.HasEdgeE(t) {
					residual += motif.Count(rel, pattern, t)
				}
			}
			er.Rows = append(er.Rows, Ext1Row{
				Mechanism:          m.String(),
				Exposure:           anonymize.Exposure(rel, targets),
				ResidualSimilarity: residual,
				UtilityLoss:        loss,
				EdgesChanged:       budget,
			})
		}
		out = append(out, er)
		c.printExt1(er)
	}
	return out, nil
}

func (c Config) printExt1(er Ext1Result) {
	c.printf("\n== ext1: %v pattern — TPP vs traditional structural anonymization ==\n", er.Pattern)
	c.printf("%-20s %10s %12s %14s %10s\n", "mechanism", "exposure", "residual-sim", "utility-loss", "edits")
	for _, row := range er.Rows {
		c.printf("%-20s %9.0f%% %12d %13.2f%% %10d\n",
			row.Mechanism, row.Exposure*100, row.ResidualSimilarity, row.UtilityLoss*100, row.EdgesChanged)
	}
}

// Ext2Row is the Katz-defense outcome for one budget.
type Ext2Row struct {
	K         int
	KatzScore float64
	RDKatz    float64 // random deletion at equal budget, for contrast
	Reduction float64 // fractional reduction versus the undefended release
}

// katzOn scores one target on a released graph with the adversary's Katz
// parameters.
func katzOn(g *graph.Graph, t graph.Edge, opt tpp.KatzOptions) float64 {
	return linkpred.KatzScore(g, t.U, t.V, opt.Beta, opt.MaxLen)
}

// Ext3PentagonPanel runs the Fig. 3 protocol under the Pentagon motif —
// the pattern-generality claim ("our work is general and can be used for
// any subgraph pattern", Sec. VII) exercised on a motif the paper never
// evaluated.
func (c Config) Ext3PentagonPanel() (FigureResult, error) {
	g := c.arenasGraph()
	fr, err := c.qualityPanel("ext3", g, motif.Pentagon, c.ArenasTargets)
	if err != nil {
		return FigureResult{}, err
	}
	c.printPanel(fr)
	return fr, nil
}

// Ext4DPComparison contrasts ε-DP randomized response with TPP: the DP
// release flips edges uniformly, so targets survive with probability
// 1−q while the noise floods utility — the paper's Sec. II critique of
// whole-graph mechanisms, measured.
func (c Config) Ext4DPComparison(eps float64) ([]Ext1Row, error) {
	g := c.arenasGraph()
	rng := c.rng(hashID("ext4", 0))
	targets := datasets.SampleTargets(g, c.ArenasTargets, rng)
	pr, err := tpp.New(g, targets, tpp.WithPattern(motif.Triangle))
	if err != nil {
		return nil, err
	}
	_, res, err := criticalBudget(pr)
	if err != nil {
		return nil, err
	}
	origVals := metrics.Compute(g, metrics.LargeGraphMetrics, c.rng(hashID("ext4m", 0)))

	var rows []Ext1Row
	// TPP row.
	released := pr.Release(res)
	relVals := metrics.Compute(released, metrics.LargeGraphMetrics, c.rng(hashID("ext4m", 0)))
	_, loss := metrics.AverageUtilityLoss(origVals, relVals)
	rows = append(rows, Ext1Row{
		Mechanism:    "TPP (SGB-Greedy)",
		Exposure:     anonymize.Exposure(released, targets),
		UtilityLoss:  loss,
		EdgesChanged: len(targets) + len(res.Protectors),
	})
	// DP row.
	dpRel, flips, err := anonymize.DPEdgeFlip(g, eps, c.rng(hashID("ext4dp", 0)))
	if err != nil {
		return nil, err
	}
	dpVals := metrics.Compute(dpRel, metrics.LargeGraphMetrics, c.rng(hashID("ext4m", 0)))
	_, dpLoss := metrics.AverageUtilityLoss(origVals, dpVals)
	rows = append(rows, Ext1Row{
		Mechanism:    "DP-RandomizedResponse",
		Exposure:     anonymize.Exposure(dpRel, targets),
		UtilityLoss:  dpLoss,
		EdgesChanged: flips,
	})

	c.printf("\n== ext4: TPP vs ε-DP randomized response (eps=%.2f, q=%.3f) ==\n",
		eps, anonymize.DPFlipProbability(eps))
	c.printf("%-24s %10s %14s %10s\n", "mechanism", "exposure", "utility-loss", "edits")
	for _, row := range rows {
		c.printf("%-24s %9.0f%% %13.2f%% %10d\n",
			row.Mechanism, row.Exposure*100, row.UtilityLoss*100, row.EdgesChanged)
	}
	return rows, nil
}

// Ext2KatzDefense measures the Katz-greedy defense (paper future work):
// total Katz score of the targets after k deletions, versus random
// deletion at the same budget.
func (c Config) Ext2KatzDefense() ([]Ext2Row, error) {
	g := c.arenasGraph()
	rng := c.rng(hashID("ext2", 0))
	targets := datasets.SampleTargets(g, c.ArenasTargets/2+1, rng)
	problem, err := tpp.NewProblem(g, motif.Triangle, targets)
	if err != nil {
		return nil, err
	}
	opt := tpp.DefaultKatzOptions()
	kMax := c.TimeBudget
	res, err := tpp.KatzGreedy(problem, kMax, opt)
	if err != nil {
		return nil, err
	}
	rd, err := tpp.RandomDeletion(problem, kMax, c.rng(hashID("ext2rd", 0)))
	if err != nil {
		return nil, err
	}
	base := res.ScoreTrace[0]

	var rows []Ext2Row
	c.printf("\n== ext2: Katz-based TPP defense (beta=%.3f, maxLen=%d) ==\n", opt.Beta, opt.MaxLen)
	c.printf("%6s %14s %14s %12s\n", "k", "KatzGreedy", "RD", "reduction")
	for _, k := range kGrid(kMax, 6) {
		score := base
		if k < len(res.ScoreTrace) {
			score = res.ScoreTrace[k]
		} else if len(res.ScoreTrace) > 0 {
			score = res.ScoreTrace[len(res.ScoreTrace)-1]
		}
		// Recompute the RD release's Katz score at budget k.
		relRD := problem.ProtectedGraph(rd.Protectors[:min(k, len(rd.Protectors))])
		rdScore := 0.0
		for _, t := range targets {
			rdScore += katzOn(relRD, t, opt)
		}
		red := 0.0
		if base > 0 {
			red = 1 - score/base
		}
		rows = append(rows, Ext2Row{K: k, KatzScore: score, RDKatz: rdScore, Reduction: red})
		c.printf("%6d %14.6g %14.6g %11.1f%%\n", k, score, rdScore, red*100)
	}
	return rows, nil
}
