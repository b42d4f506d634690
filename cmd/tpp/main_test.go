package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

// writeTestGraph writes a small labelled graph with two triangles around
// the target pair a-b and returns the path.
func writeTestGraph(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	content := `# test graph
a b
a c
c b
a d
d b
c e
e f
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunEndToEnd(t *testing.T) {
	in := writeTestGraph(t)
	out := filepath.Join(t.TempDir(), "released.txt")
	var errw bytes.Buffer
	err := run([]string{"-in", in, "-targets", "a-b", "-method", "sgb", "-out", out, "-report=false"}, &errw)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errw.String())
	}
	if !strings.Contains(errw.String(), "full protection reached") {
		t.Fatalf("expected full protection, got: %s", errw.String())
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	g, lab, err := graph.ReadEdgeList(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The target and enough protectors are gone; a and b share no
	// neighbour anymore.
	a, aok := lab.ToID["a"]
	b, bok := lab.ToID["b"]
	if aok && bok {
		if g.HasEdge(a, b) {
			t.Fatal("target still present in release")
		}
		if g.CommonNeighborCount(a, b) != 0 {
			t.Fatal("target still completable by a triangle")
		}
	}
}

func TestRunMethodsAndDivisions(t *testing.T) {
	in := writeTestGraph(t)
	for _, method := range []string{"ct", "wt", "rd", "rdt"} {
		for _, div := range []string{"tbd", "dbd"} {
			out := filepath.Join(t.TempDir(), "rel.txt")
			var errw bytes.Buffer
			err := run([]string{"-in", in, "-targets", "a-b", "-method", method,
				"-division", div, "-k", "3", "-out", out, "-report=false"}, &errw)
			if err != nil {
				t.Fatalf("method %s/%s: %v", method, div, err)
			}
		}
	}
}

// TestRunWorkers drives the workers setting through the CLI: every worker
// count must succeed and release the same graph (selections are
// worker-independent).
func TestRunWorkers(t *testing.T) {
	in := writeTestGraph(t)
	var want string
	for _, workers := range []string{"1", "4"} {
		out := filepath.Join(t.TempDir(), "rel.txt")
		var errw bytes.Buffer
		err := run([]string{"-in", in, "-targets", "a-b",
			"-workers", workers, "-out", out, "-report=false"}, &errw)
		if err != nil {
			t.Fatalf("workers %s: %v (stderr: %s)", workers, err, errw.String())
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if want == "" {
			want = string(raw)
		} else if string(raw) != want {
			t.Fatalf("workers %s released a different graph", workers)
		}
	}
}

func TestRunErrors(t *testing.T) {
	in := writeTestGraph(t)
	cases := [][]string{
		{},          // missing flags
		{"-in", in}, // missing targets
		{"-in", "/nonexistent", "-targets", "a-b"},
		{"-in", in, "-targets", "a-zzz"},    // unknown node
		{"-in", in, "-targets", "nonsense"}, // malformed pair
		{"-in", in, "-targets", "a-b", "-pattern", "Hexagon"},
		{"-in", in, "-targets", "a-b", "-method", "bogus"},
		{"-in", in, "-targets", "a-b", "-method", "ct", "-division", "bogus"},
		{"-in", in, "-targets", "a-b", "-engine", "recount"}, // the removed -engine flag
		{"-in", in, "-targets", "c-f"},                       // not an edge
	}
	for _, args := range cases {
		var errw bytes.Buffer
		if err := run(args, &errw); err == nil {
			t.Fatalf("args %v: expected error", args)
		}
	}
}

func TestRunTargetsFileAndAutoPattern(t *testing.T) {
	in := writeTestGraph(t)
	tf := filepath.Join(t.TempDir(), "targets.txt")
	if err := os.WriteFile(tf, []byte("a-b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "rel.txt")
	var errw bytes.Buffer
	err := run([]string{"-in", in, "-targets-file", tf, "-pattern", "auto",
		"-out", out, "-report=false"}, &errw)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errw.String())
	}
	if !strings.Contains(errw.String(), "auto-selected threat motif") {
		t.Fatalf("auto selection not reported: %s", errw.String())
	}
}

func TestParseTargets(t *testing.T) {
	lab := &graph.Labeling{ToID: map[string]graph.NodeID{"a": 0, "b": 1, "c": 2}}
	got, err := parseTargets(" a-b , b-c ", lab)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != graph.NewEdge(0, 1) || got[1] != graph.NewEdge(1, 2) {
		t.Fatalf("parseTargets = %v", got)
	}
	if _, err := parseTargets("", lab); err == nil {
		t.Fatal("empty spec accepted")
	}
}
