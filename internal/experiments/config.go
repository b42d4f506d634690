// Package experiments regenerates every table and figure of the TPP
// paper's evaluation (Sec. VI): the similarity-evolution curves (Figs.
// 3–4), the running-time curves (Figs. 5–6) and the utility-loss tables
// (Tables III–V), each as a runner that prints the same series/rows the
// paper reports and optionally dumps CSV for plotting.
//
// The paper's two datasets are replaced by seeded synthetic stand-ins
// (see repro/internal/datasets). The quick-scale quality artefacts are
// pinned in testdata/golden/tables.txt (TestGoldenTables).
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/tpp"
)

// Config controls dataset scale and repetition counts. The zero value is
// not valid; use DefaultConfig or QuickConfig.
type Config struct {
	// Seed drives every random choice (datasets, target sampling,
	// baselines); runs with equal seeds are identical.
	Seed int64
	// Out receives the printed series and tables.
	Out io.Writer
	// CSVDir, when non-empty, receives one CSV file per figure/table.
	CSVDir string
	// Repetitions is the number of independent target samplings averaged
	// per figure point (the paper uses ≥10).
	Repetitions int
	// ArenasScale is the node count for the Arenas-email stand-in
	// (paper: 1133).
	ArenasScale int
	// DBLPScale is the node count for the DBLP stand-in (paper: 317080;
	// default far smaller — the algorithms' cost is driven by |T| and
	// motif counts, not |V|, so the curve shapes survive).
	DBLPScale int
	// ArenasTargets and DBLPTargets are |T| per dataset (paper: 20 and 50).
	ArenasTargets int
	DBLPTargets   int
	// TimeBudget is the max budget k for the running-time figures
	// (paper: 25).
	TimeBudget int
	// QualityPoints is the number of k-axis samples for Figs. 3–4.
	QualityPoints int
}

// DefaultConfig mirrors the paper's experimental scales.
func DefaultConfig(out io.Writer) Config {
	return Config{
		Seed:          1,
		Out:           out,
		Repetitions:   10,
		ArenasScale:   1133,
		DBLPScale:     30000,
		ArenasTargets: 20,
		DBLPTargets:   50,
		TimeBudget:    25,
		QualityPoints: 25,
	}
}

// QuickConfig is a CI-sized configuration: same protocol, smaller graphs
// and fewer repetitions, finishing in seconds.
func QuickConfig(out io.Writer) Config {
	return Config{
		Seed:          1,
		Out:           out,
		Repetitions:   3,
		ArenasScale:   300,
		DBLPScale:     1500,
		ArenasTargets: 10,
		DBLPTargets:   15,
		TimeBudget:    8,
		QualityPoints: 8,
	}
}

func (c Config) rng(offset int64) *rand.Rand {
	return rand.New(rand.NewSource(c.Seed*1000003 + offset))
}

func (c Config) printf(format string, args ...interface{}) {
	if c.Out != nil {
		fmt.Fprintf(c.Out, format, args...)
	}
}

// arenasGraph builds the Arenas-email stand-in at the configured scale.
func (c Config) arenasGraph() *graph.Graph {
	if c.ArenasScale >= 1133 {
		return datasets.ArenasEmailSim(c.Seed).Graph
	}
	// Reduced-scale variant for quick runs: same generator family.
	return datasets.DBLPSim(c.ArenasScale, c.Seed).Graph
}

func (c Config) dblpGraph() *graph.Graph {
	return datasets.DBLPSim(c.DBLPScale, c.Seed+1).Graph
}

// Series is one method's curve: Value[i] measured at budget K[i].
type Series struct {
	Method string
	K      []int
	Value  []float64
}

// FigureResult groups the series of one figure panel.
type FigureResult struct {
	ID      string
	Pattern motif.Pattern
	Series  []Series
}

// methodSpec describes one curve of Figs. 3–4 or one column of Tables
// III–V: a greedy method (with its budget division, for CT/WT) selected
// through the sampled problem's session, or an RD/RDT baseline.
type methodSpec struct {
	name     string
	method   tpp.Method
	division tpp.Division
}

// perK reports whether the method must be re-run for every budget value
// (CT/WT: the budget division depends on k). The others produce their
// whole curve from one run's trace.
func (m methodSpec) perK() bool { return m.method == tpp.MethodCT || m.method == tpp.MethodWT }

// run selects protectors with total budget k. A greedy method runs
// through the session at WithBudget(k). A session reads budget 0 as k*;
// callers pass 0 only when nothing is left to protect, where k* is 0 too.
// RD and RDT run as free functions on the session's problem with the
// experiment's own rng, whose stream a session's seed would change.
func (m methodSpec) run(pr *tpp.Protector, k int, rng *rand.Rand) (*tpp.Result, error) {
	switch m.method {
	case tpp.MethodRD:
		return tpp.RandomDeletion(pr.Problem(), k, rng)
	case tpp.MethodRDT:
		return tpp.RandomDeletionFromTargets(pr.Problem(), k, rng)
	}
	return pr.Run(context.Background(), tpp.WithMethod(m.method), tpp.WithDivision(m.division), tpp.WithBudget(k))
}

// qualityMethods are the seven curves of Figs. 3–4. The greedy methods
// select through the session's motif index: its selections are the recount
// engine's, bit for bit (see tpp tests), and the figures measure
// similarity, not time.
func qualityMethods() []methodSpec {
	return []methodSpec{
		{"SGB-Greedy(-R)", tpp.MethodSGB, ""},
		{"CT-Greedy(-R):TBD", tpp.MethodCT, tpp.DivisionTBD},
		{"WT-Greedy(-R):TBD", tpp.MethodWT, tpp.DivisionTBD},
		{"CT-Greedy(-R):DBD", tpp.MethodCT, tpp.DivisionDBD},
		{"WT-Greedy(-R):DBD", tpp.MethodWT, tpp.DivisionDBD},
		{"RD", tpp.MethodRD, ""},
		{"RDT", tpp.MethodRDT, ""},
	}
}

// criticalBudget is the session's k*: its budget-0 SGB run.
func criticalBudget(pr *tpp.Protector) (int, *tpp.Result, error) {
	res, err := pr.Run(context.Background(), tpp.WithMethod(tpp.MethodSGB), tpp.WithBudget(0))
	if err != nil {
		return 0, nil, err
	}
	return len(res.Protectors), res, nil
}

// kGrid returns n budget samples spanning [1, kMax], always including kMax.
func kGrid(kMax, n int) []int {
	if kMax < 1 {
		return nil
	}
	if n > kMax {
		n = kMax
	}
	out := make([]int, 0, n)
	for i := 1; i <= n; i++ {
		k := i * kMax / n
		if k < 1 {
			k = 1
		}
		if len(out) > 0 && out[len(out)-1] == k {
			continue
		}
		out = append(out, k)
	}
	return out
}
