package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden tables pin the paper's quality results as this repo
// reproduces them: tppbench's quick-scale fig3, fig4, tab3–tab5 and
// ext1–ext4 at seed 1, printed exactly as `tppbench -exp <id>` prints
// them. None of these print timings (Figs. 5–6 and the stage table do,
// so they are not pinned). The file changes only when regenerated with
//
//	go test ./internal/experiments -run TestGoldenTables -update
//
// and a change that regenerates it must say which figures moved and why.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current code")

const goldenTablesPath = "testdata/golden/tables.txt"

// goldenTables runs every pinned artefact at QuickConfig, seed 1, in
// tppbench's order and returns what they print.
func goldenTables(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	cfg := QuickConfig(&buf)
	steps := []struct {
		id  string
		run func() error
	}{
		{"fig3", func() error { _, err := cfg.Fig3(); return err }},
		{"fig4", func() error { _, err := cfg.Fig4(); return err }},
		{"tab3", func() error { _, err := cfg.Table3(); return err }},
		{"tab4", func() error { _, err := cfg.Table4(); return err }},
		{"tab5", func() error { _, err := cfg.Table5(); return err }},
		{"ext1", func() error { _, err := cfg.Ext1StructuralComparison(); return err }},
		{"ext2", func() error { _, err := cfg.Ext2KatzDefense(); return err }},
		{"ext3", func() error { _, err := cfg.Ext3PentagonPanel(); return err }},
		{"ext4", func() error { _, err := cfg.Ext4DPComparison(2.0); return err }},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			t.Fatalf("%s: %v", s.id, err)
		}
	}
	return buf.Bytes()
}

// TestGoldenTables recomputes the quick-scale quality tables and compares
// them byte for byte with the committed file.
func TestGoldenTables(t *testing.T) {
	got := goldenTables(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenTablesPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTablesPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", len(got), goldenTablesPath)
		return
	}
	want, err := os.ReadFile(goldenTablesPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs\n got: %q\nwant: %q", goldenTablesPath, i+1, g, w)
		}
	}
}
