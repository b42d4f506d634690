package experiments

import (
	"fmt"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/motif"
	"repro/internal/tpp"
)

// Utility-loss tables (paper Tables III–V): run every greedy method to full
// protection, then compare Table II metrics between the original graph and
// the released graph (targets and protectors removed). The reported figure
// is the average utility-loss ratio across metrics, in percent.

// TableRow is one (motif × method) cell set of a utility-loss table.
type TableRow struct {
	Pattern motif.Pattern
	// Loss maps method name to average utility-loss ratio (fraction, not
	// percent).
	Loss map[string]float64
	// KStar is the SGB critical budget for this pattern (context for the
	// row; the paper reports full-protection loss).
	KStar int
}

// TableResult is one utility-loss table.
type TableResult struct {
	ID      string
	Dataset string
	Targets int
	Metrics []metrics.MetricKind
	Rows    []TableRow
}

// tableMethods are the five method columns of Tables III–V.
func tableMethods() []methodSpec {
	return []methodSpec{
		{"SGB-Greedy(-R)", tpp.MethodSGB, ""},
		{"CT-Greedy(-R):DBD", tpp.MethodCT, tpp.DivisionDBD},
		{"CT-Greedy(-R):TBD", tpp.MethodCT, tpp.DivisionTBD},
		{"WT-Greedy(-R):DBD", tpp.MethodWT, tpp.DivisionDBD},
		{"WT-Greedy(-R):TBD", tpp.MethodWT, tpp.DivisionTBD},
	}
}

// Table3 reproduces paper Table III: utility loss at full protection on
// Arenas-email with |T| = ArenasTargets (paper: 20).
func (c Config) Table3() (*TableResult, error) {
	return c.utilityTable("tab3", c.arenasGraph(), "arenas-email-sim", c.ArenasTargets, metrics.AllMetrics)
}

// Table4 reproduces paper Table IV: as Table III with |T| = 50 (scaled in
// quick mode).
func (c Config) Table4() (*TableResult, error) {
	targets := 50
	if c.ArenasScale < 1133 {
		targets = c.ArenasTargets * 5 / 2
	}
	return c.utilityTable("tab4", c.arenasGraph(), "arenas-email-sim", targets, metrics.AllMetrics)
}

// Table5 reproduces paper Table V: utility loss on the DBLP stand-in with
// |T| = 52, restricted to the metrics the paper could compute at scale
// (clustering coefficient and core number).
func (c Config) Table5() (*TableResult, error) {
	targets := 52
	if c.DBLPScale < 30000 {
		targets = c.DBLPTargets
	}
	return c.utilityTable("tab5", c.dblpGraph(), "dblp-sim", targets, metrics.LargeGraphMetrics)
}

func (c Config) utilityTable(id string, g *graph.Graph, dataset string, numTargets int, kinds []metrics.MetricKind) (*TableResult, error) {
	origVals := metrics.Compute(g, kinds, c.rng(hashID(id, 0)))
	tr := &TableResult{ID: id, Dataset: dataset, Targets: numTargets, Metrics: kinds}

	for _, pattern := range motif.Patterns {
		rng := c.rng(hashID(id, pattern))
		targets := datasets.SampleTargets(g, numTargets, rng)
		pr, err := tpp.New(g, targets, tpp.WithPattern(pattern))
		if err != nil {
			return nil, fmt.Errorf("experiments: %s %v: %w", id, pattern, err)
		}
		kstar, _, err := criticalBudget(pr)
		if err != nil {
			return nil, err
		}
		// A budget of Σ|W_t| guarantees every method can reach full
		// protection (one deletion per instance always suffices).
		full := pr.Problem().InitialSimilarity()
		row := TableRow{Pattern: pattern, Loss: make(map[string]float64), KStar: kstar}
		for _, m := range tableMethods() {
			res, err := m.run(pr, full, nil)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s %v %s: %w", id, pattern, m.name, err)
			}
			if !res.FullProtection() {
				return nil, fmt.Errorf("experiments: %s %v %s: expected full protection, similarity %d remains",
					id, pattern, m.name, res.FinalSimilarity())
			}
			released := pr.Release(res)
			relVals := metrics.Compute(released, kinds, c.rng(hashID(id, 0)))
			_, mean := metrics.AverageUtilityLoss(origVals, relVals)
			row.Loss[m.name] = mean
		}
		tr.Rows = append(tr.Rows, row)
	}
	c.printTable(tr)
	if c.CSVDir != "" {
		if err := writeTableCSV(c.CSVDir, tr); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

func (c Config) printTable(tr *TableResult) {
	c.printf("\n== %s: utility loss ratio at full protection — %s, |T|=%d ==\n", tr.ID, tr.Dataset, tr.Targets)
	methods := tableMethods()
	c.printf("%-12s %6s", "Pattern", "k*")
	for _, m := range methods {
		c.printf(" %18s", m.name)
	}
	c.printf("\n")
	for _, row := range tr.Rows {
		c.printf("%-12s %6d", row.Pattern.String(), row.KStar)
		for _, m := range methods {
			c.printf(" %17.3f%%", row.Loss[m.name]*100)
		}
		c.printf("\n")
	}
}

// RunAll executes every figure and table in paper order.
func (c Config) RunAll() error {
	steps := []func() error{
		func() error { _, err := c.Fig3(); return err },
		func() error { _, err := c.Fig4(); return err },
		func() error { _, err := c.Fig5(); return err },
		func() error { _, err := c.Fig6(); return err },
		func() error { _, err := c.Table3(); return err },
		func() error { _, err := c.Table4(); return err },
		func() error { _, err := c.Table5(); return err },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}
