// Command tpp protects target links in a social graph.
//
// It reads an edge list, deletes the specified target links (phase 1),
// selects and deletes protector links under the requested algorithm and
// budget (phase 2), and writes the released graph back out as an edge
// list. A protection report is printed to stderr.
//
// Usage:
//
//	tpp -in graph.txt -out released.txt -targets "a-b,c-d" \
//	    -pattern Triangle -method sgb -k 10
//
// Targets are comma-separated "u-v" pairs in the input file's node labels.
// With -k 0 (the default) the critical budget k* is used: the smallest
// budget achieving full protection. Selection runs through the motif
// index; the paper's naive recount timings (Figs. 5–6) come from tppbench.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"repro/internal/graph"
	"repro/internal/linkpred"
	"repro/internal/motif"
	"repro/internal/tpp"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tpp:", err)
		os.Exit(1)
	}
}

func run(args []string, errw io.Writer) error {
	fs := flag.NewFlagSet("tpp", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		inPath      = fs.String("in", "", "input edge list (required)")
		outPath     = fs.String("out", "", "output edge list for the released graph (default: stdout)")
		targets     = fs.String("targets", "", "comma-separated target links, e.g. \"alice-bob,carol-dave\"")
		targetsFile = fs.String("targets-file", "", "file with one u-v target per line (alternative to -targets)")
		pattern     = fs.String("pattern", "Triangle", "motif pattern: Triangle, Rectangle, RecTri, Pentagon, or auto (pick the most significant motif)")
		method      = fs.String("method", "sgb", "protector selection: sgb, ct, wt, rd, rdt")
		division    = fs.String("division", "tbd", "budget division for ct/wt: tbd or dbd")
		k           = fs.Int("k", 0, "deletion budget (0 = critical budget k*)")
		seed        = fs.Int64("seed", 1, "random seed for rd/rdt baselines")
		workers     = fs.Int("workers", 0, "index enumeration workers; selection runs on one goroutine (0 = auto)")
		report      = fs.Bool("report", true, "print a defense report against all link-prediction indices")
		timeout     = fs.Duration("timeout", 0, "abort selection after this long (0 = no limit)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inPath == "" || (*targets == "" && *targetsFile == "") {
		fs.Usage()
		return fmt.Errorf("-in and -targets (or -targets-file) are required")
	}

	in, err := os.Open(*inPath)
	if err != nil {
		return err
	}
	g, lab, err := graph.ReadEdgeList(in)
	in.Close()
	if err != nil {
		return err
	}
	fmt.Fprintf(errw, "loaded %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	spec := *targets
	if *targetsFile != "" {
		raw, err := os.ReadFile(*targetsFile)
		if err != nil {
			return err
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if spec != "" {
			lines = append(lines, strings.Split(spec, ",")...)
		}
		spec = strings.Join(lines, ",")
	}
	targetEdges, err := parseTargets(spec, lab)
	if err != nil {
		return err
	}

	var pat motif.Pattern
	if *pattern == "auto" {
		// Recommend the motif most over-represented versus a degree-
		// preserving null — the adversary's best prediction signal.
		pat = motif.MostSignificant(g, motif.Patterns, 5, rand.New(rand.NewSource(*seed)))
		fmt.Fprintf(errw, "auto-selected threat motif: %s\n", pat)
	} else {
		pat, err = motif.ParsePattern(*pattern)
		if err != nil {
			return err
		}
	}
	m, err := tpp.ParseMethod(*method)
	if err != nil {
		return err
	}
	d, err := tpp.ParseDivision(*division)
	if err != nil {
		return err
	}
	session, err := tpp.New(g, targetEdges,
		tpp.WithPattern(pat),
		tpp.WithMethod(m),
		tpp.WithDivision(d),
		tpp.WithBudget(*k),
		tpp.WithSeed(*seed),
		tpp.WithWorkers(*workers),
	)
	if err != nil {
		return err
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := session.Run(ctx)
	if err != nil {
		return err
	}

	fmt.Fprintf(errw, "%s deleted %d protectors; similarity %d -> %d (dissimilarity gain %d)\n",
		res.Method, len(res.Protectors), res.SimilarityTrace[0], res.FinalSimilarity(), res.Dissimilarity())
	if res.FullProtection() {
		fmt.Fprintf(errw, "full protection reached: no %s instance can complete any target\n", pat)
	} else {
		fmt.Fprintf(errw, "WARNING: %d target subgraphs survive; raise -k for full protection\n", res.FinalSimilarity())
	}

	released := session.Release(res)
	if *report {
		rng := rand.New(rand.NewSource(*seed))
		fmt.Fprintln(errw, "adversarial link-prediction report (released graph):")
		for _, line := range linkpred.SummarizeDefense(released, targetEdges, 200, rng) {
			fmt.Fprintln(errw, "  "+line)
		}
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	return graph.WriteEdgeList(out, released, lab)
}

func parseTargets(spec string, lab *graph.Labeling) ([]graph.Edge, error) {
	var out []graph.Edge
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		uv := strings.SplitN(part, "-", 2)
		if len(uv) != 2 {
			return nil, fmt.Errorf("malformed target %q (want u-v)", part)
		}
		u, ok := lab.ToID[uv[0]]
		if !ok {
			return nil, fmt.Errorf("target node %q not in graph", uv[0])
		}
		v, ok := lab.ToID[uv[1]]
		if !ok {
			return nil, fmt.Errorf("target node %q not in graph", uv[1])
		}
		out = append(out, graph.NewEdge(u, v))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no targets parsed from %q", spec)
	}
	return out, nil
}
