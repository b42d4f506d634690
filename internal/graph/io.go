package graph

// Edge-list I/O. The reader accepts the common formats used by KONECT and
// SNAP dumps (the sources of the paper's Arenas-email and DBLP datasets):
// whitespace-separated node pairs, '#' or '%' comment lines, arbitrary
// (possibly sparse or string) node labels. Labels are relabelled to dense
// IDs in first-seen order; the mapping is returned so results can be
// reported in the original namespace.

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Labeling maps between external string node labels and dense NodeIDs.
type Labeling struct {
	ToID   map[string]NodeID
	ToName []string
}

// Name returns the external label of n, or its decimal form when the
// labeling is nil/unknown (useful for synthetic graphs).
func (l *Labeling) Name(n NodeID) string {
	if l != nil && int(n) < len(l.ToName) {
		return l.ToName[n]
	}
	return fmt.Sprintf("%d", n)
}

// ReadEdgeList parses an edge list from r. Empty lines and lines starting
// with '#' or '%' are skipped. Each remaining line must contain at least
// two whitespace-separated fields (extra fields, e.g. weights or
// timestamps, are ignored). Self loops and duplicate edges are dropped
// silently — both appear in raw KONECT dumps.
func ReadEdgeList(r io.Reader) (*Graph, *Labeling, error) {
	lab := &Labeling{ToID: make(map[string]NodeID)}
	var edges []Edge
	intern := func(s string) NodeID {
		if id, ok := lab.ToID[s]; ok {
			return id
		}
		id := NodeID(len(lab.ToName))
		lab.ToID[s] = id
		lab.ToName = append(lab.ToName, s)
		return id
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("graph: line %d: expected at least two fields, got %q", lineNo, line)
		}
		u, v := intern(fields[0]), intern(fields[1])
		if u == v {
			continue // drop self loops
		}
		edges = append(edges, NewEdge(u, v))
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("graph: reading edge list: %w", err)
	}

	return FromEdges(len(lab.ToName), edges), lab, nil // duplicates collapse
}

// WriteEdgeList writes g as a plain edge list, one "u v" pair per line in
// canonical order. When lab is non-nil the external labels are used.
func WriteEdgeList(w io.Writer, g *Graph, lab *Labeling) error {
	bw := bufio.NewWriter(w)
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%s %s\n", lab.Name(e.U), lab.Name(e.V)); err != nil {
			return fmt.Errorf("graph: writing edge list: %w", err)
		}
	}
	return bw.Flush()
}
