package experiments

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
)

func quickCfg(t *testing.T) (Config, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	cfg := QuickConfig(&buf)
	// Trim further for unit-test speed.
	cfg.Repetitions = 2
	cfg.ArenasScale = 200
	cfg.DBLPScale = 400
	cfg.ArenasTargets = 6
	cfg.DBLPTargets = 8
	cfg.TimeBudget = 4
	cfg.QualityPoints = 4
	return cfg, &buf
}

func TestKGrid(t *testing.T) {
	if got := kGrid(25, 5); !reflect.DeepEqual(got, []int{5, 10, 15, 20, 25}) {
		t.Fatalf("kGrid(25,5) = %v", got)
	}
	if got := kGrid(3, 10); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("kGrid(3,10) = %v", got)
	}
	if got := kGrid(0, 5); got != nil {
		t.Fatalf("kGrid(0,5) = %v, want nil", got)
	}
	// Always ends at kMax.
	if got := kGrid(17, 4); got[len(got)-1] != 17 {
		t.Fatalf("kGrid(17,4) = %v, should end at 17", got)
	}
}

func TestFig3QuickRuns(t *testing.T) {
	cfg, buf := quickCfg(t)
	frs, err := cfg.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(frs) != 3 {
		t.Fatalf("panels = %d, want 3 (one per motif)", len(frs))
	}
	for _, fr := range frs {
		if len(fr.Series) != 7 {
			t.Fatalf("%v: series = %d, want 7 methods", fr.Pattern, len(fr.Series))
		}
		for _, s := range fr.Series {
			// Similarity never increases along the budget axis.
			for i := 1; i < len(s.Value); i++ {
				if s.Value[i] > s.Value[i-1]+1e-9 {
					t.Fatalf("%v %s: similarity increased along k: %v", fr.Pattern, s.Method, s.Value)
				}
			}
		}
		// SGB ends at zero similarity (grid reaches max k*).
		var sgb Series
		for _, s := range fr.Series {
			if s.Method == "SGB-Greedy(-R)" {
				sgb = s
			}
		}
		if sgb.Value[len(sgb.Value)-1] != 0 {
			t.Fatalf("%v: SGB should reach full protection at k*, got %v", fr.Pattern, sgb.Value)
		}
	}
	if !strings.Contains(buf.String(), "fig3") {
		t.Fatal("no printed output")
	}
}

func TestFig3SGBDominatesBaselines(t *testing.T) {
	cfg, _ := quickCfg(t)
	frs, err := cfg.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range frs {
		byName := map[string]Series{}
		for _, s := range fr.Series {
			byName[s.Method] = s
		}
		sgb, rd := byName["SGB-Greedy(-R)"], byName["RD"]
		// At every sampled budget, greedy is at least as protective on
		// average as random deletion (paper Fig. 3's headline ordering).
		for i := range sgb.Value {
			if sgb.Value[i] > rd.Value[i]+1e-9 {
				t.Fatalf("%v: SGB worse than RD at k=%d: %v vs %v",
					fr.Pattern, sgb.K[i], sgb.Value[i], rd.Value[i])
			}
		}
	}
}

func TestFig5TimingShape(t *testing.T) {
	cfg, _ := quickCfg(t)
	// The curves are wall-clock times of runs lasting well under a
	// millisecond, so one preemption of the restricted run can outlast the
	// whole naive run. Each method's cost is the fastest of a few
	// measurements, as in benchmarking.
	const measurements = 3
	fastest := map[string]map[string]float64{} // pattern → method → seconds at k max
	for m := 0; m < measurements; m++ {
		frs, err := cfg.Fig5()
		if err != nil {
			t.Fatal(err)
		}
		for _, fr := range frs {
			pattern := fr.Pattern.String()
			if fastest[pattern] == nil {
				fastest[pattern] = map[string]float64{}
			}
			for _, s := range fr.Series {
				// Cumulative time is non-decreasing in k.
				for i := 1; i < len(s.Value); i++ {
					if s.Value[i] < s.Value[i-1] {
						t.Fatalf("%v %s: time decreased along k", fr.Pattern, s.Method)
					}
				}
				v := s.Value[len(s.Value)-1]
				if prev, ok := fastest[pattern][s.Method]; !ok || v < prev {
					fastest[pattern][s.Method] = v
				}
			}
		}
	}
	for pattern, byMethod := range fastest {
		naive, restricted := byMethod["SGB-Greedy"], byMethod["SGB-Greedy-R"]
		if naive < restricted {
			t.Fatalf("%v: naive SGB (%vs) faster than restricted (%vs)?", pattern, naive, restricted)
		}
	}
}

func TestFig4And6Quick(t *testing.T) {
	cfg, _ := quickCfg(t)
	if _, err := cfg.Fig4(); err != nil {
		t.Fatal(err)
	}
	frs, err := cfg.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range frs {
		if len(fr.Series) != 5 {
			t.Fatalf("fig6 %v: series = %d, want 5", fr.Pattern, len(fr.Series))
		}
	}
}

func TestTable3FullProtectionAndSmallLoss(t *testing.T) {
	cfg, buf := quickCfg(t)
	tr, err := cfg.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tr.Rows))
	}
	for _, row := range tr.Rows {
		for method, loss := range row.Loss {
			if loss < 0 {
				t.Fatalf("%v %s: negative loss %v", row.Pattern, method, loss)
			}
			// Full protection of a handful of targets costs a small
			// fraction of utility (paper: ≤ ~9% worst case).
			if loss > 0.5 {
				t.Fatalf("%v %s: loss %v implausibly high", row.Pattern, method, loss)
			}
		}
	}
	if !strings.Contains(buf.String(), "utility loss") {
		t.Fatal("table not printed")
	}
}

func TestTable5UsesLargeGraphMetrics(t *testing.T) {
	cfg, _ := quickCfg(t)
	tr, err := cfg.Table5()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Metrics, metrics.LargeGraphMetrics) {
		t.Fatalf("Table 5 metrics = %v, want clustering+core only", tr.Metrics)
	}
}

func TestCSVOutput(t *testing.T) {
	cfg, _ := quickCfg(t)
	dir := t.TempDir()
	cfg.CSVDir = dir
	if _, err := cfg.Fig3(); err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.Table3(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig3.csv", "tab3.csv"} {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
		recs, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		if len(recs) < 2 {
			t.Fatalf("%s has no data rows", name)
		}
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll covers every figure; skipped in -short")
	}
	cfg, buf := quickCfg(t)
	if err := cfg.RunAll(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"fig3", "fig4", "fig5", "fig6", "tab3", "tab4", "tab5"} {
		if !strings.Contains(out, id) {
			t.Fatalf("RunAll output missing %s", id)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	cfg1, _ := quickCfg(t)
	cfg2, _ := quickCfg(t)
	a, err := cfg1.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg2.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	// Quality figures are fully deterministic given the seed.
	for i := range a {
		if !reflect.DeepEqual(a[i].Series, b[i].Series) {
			t.Fatalf("fig3 panel %d differs between identical configs", i)
		}
	}
}
