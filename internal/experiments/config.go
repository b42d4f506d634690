// Package experiments regenerates every table and figure of the TPP
// paper's evaluation (Sec. VI): the similarity-evolution curves (Figs.
// 3–4), the running-time curves (Figs. 5–6) and the utility-loss tables
// (Tables III–V), each as a runner that prints the same series/rows the
// paper reports and optionally dumps CSV for plotting.
//
// The paper's two datasets are replaced by seeded synthetic stand-ins
// (see repro/internal/datasets); EXPERIMENTS.md records paper-versus-
// measured values for every artefact.
package experiments

import (
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

// methodSpec describes one curve of Figs. 3–6. run must perform protector
// selection with total budget k and return the result.
type methodSpec struct {
	name string
	// perK is true when the method must be re-run for every budget value
	// (CT/WT: the budget division depends on k). Methods with perK=false
	// produce their whole curve from one run's trace.
	perK bool
	run  func(p *tpp.Problem, k int, rng *rand.Rand) (*tpp.Result, error)
}

// qualityMethods are the seven curves of Figs. 3–4. All greedy methods use
// the indexed engine: selections are provably identical to the recount
// engine (see tpp tests) and the figures measure similarity, not time.
func qualityMethods() []methodSpec {
	return []methodSpec{
		{name: "SGB-Greedy(-R)", perK: false, run: func(p *tpp.Problem, k int, _ *rand.Rand) (*tpp.Result, error) {
			return tpp.SGBGreedy(p, k, tpp.Options{Engine: tpp.EngineIndexed})
		}},
		{name: "CT-Greedy(-R):TBD", perK: true, run: func(p *tpp.Problem, k int, _ *rand.Rand) (*tpp.Result, error) {
			budgets, err := tpp.TBDForProblem(p, k)
			if err != nil {
				return nil, err
			}
			return tpp.CTGreedy(p, budgets, tpp.Options{Engine: tpp.EngineIndexed})
		}},
		{name: "WT-Greedy(-R):TBD", perK: true, run: func(p *tpp.Problem, k int, _ *rand.Rand) (*tpp.Result, error) {
			budgets, err := tpp.TBDForProblem(p, k)
			if err != nil {
				return nil, err
			}
			return tpp.WTGreedy(p, budgets, tpp.Options{Engine: tpp.EngineIndexed})
		}},
		{name: "CT-Greedy(-R):DBD", perK: true, run: func(p *tpp.Problem, k int, _ *rand.Rand) (*tpp.Result, error) {
			budgets, err := tpp.DBDForProblem(p, k)
			if err != nil {
				return nil, err
			}
			return tpp.CTGreedy(p, budgets, tpp.Options{Engine: tpp.EngineIndexed})
		}},
		{name: "WT-Greedy(-R):DBD", perK: true, run: func(p *tpp.Problem, k int, _ *rand.Rand) (*tpp.Result, error) {
			budgets, err := tpp.DBDForProblem(p, k)
			if err != nil {
				return nil, err
			}
			return tpp.WTGreedy(p, budgets, tpp.Options{Engine: tpp.EngineIndexed})
		}},
		{name: "RD", perK: false, run: func(p *tpp.Problem, k int, rng *rand.Rand) (*tpp.Result, error) {
			return tpp.RandomDeletion(p, k, rng)
		}},
		{name: "RDT", perK: false, run: func(p *tpp.Problem, k int, rng *rand.Rand) (*tpp.Result, error) {
			return tpp.RandomDeletionFromTargets(p, k, rng)
		}},
	}
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
