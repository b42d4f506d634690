// Trust-system scenario (paper future work #3: "applications into real
// trust systems or social graphs"): a running platform keeps publishing
// its relationship graph while the graph evolves. A one-shot protection is
// not enough — a single new link can complete fresh motifs and silently
// re-expose a hidden target. This example keeps the published release in
// one long-lived tpp.Protector session: its phase-1 graph is the release,
// every run's protectors are removed from it for good, and each new link
// is applied as a delta and followed by a re-protection. A simulated
// activity stream shows the release staying fully protected at every step.
//
// Run with: go run ./examples/trustsystem
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/tpp"
)

func main() {
	rng := rand.New(rand.NewSource(11))

	// Day 0: the platform's graph, with three confidential relationships.
	g := gen.BarabasiAlbertTriad(250, 4, 0.5, rng)
	targets := pickClusteredTargets(g, 3)
	session, err := tpp.New(g, targets, tpp.WithPattern(motif.Triangle))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("day 0: %v\n", g.Summary())
	fmt.Printf("confidential relationships: %v\n", targets)

	// Every protection run is deadline-bounded, like any other production
	// selection.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rel := &release{session: session}
	if _, err := rel.protect(ctx); err != nil {
		log.Fatal(err)
	}
	problem := session.Problem()
	fmt.Printf("initial protection: %d links deleted, similarity = %d\n\n",
		rel.deletions, problem.InitialSimilarity())

	// Days 1..30: the platform grows — new members join, new friendships
	// form, and occasionally one half of a hidden pair tries to re-add the
	// confidential link.
	interventions, admissions := 0, 0
	for day := 1; day <= 30; day++ {
		// A new member joins and makes two friends.
		member, err := rel.addNode(ctx)
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			friend := graph.NodeID(rng.Intn(int(member)))
			if _, _, err := rel.addEdge(ctx, member, friend); err != nil {
				log.Fatal(err)
			}
		}
		// Five random new friendships among existing members.
		n := problem.G.NumNodes()
		for i := 0; i < 5; i++ {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			admitted, deleted, err := rel.addEdge(ctx, u, v)
			if err != nil {
				log.Fatal(err)
			}
			if admitted {
				admissions++
			}
			if len(deleted) > 0 {
				interventions++
				fmt.Printf("day %2d: link %d-%d completed target motifs — guard deleted %v\n",
					day, u, v, deleted)
			}
		}
		// Triadic closure near a hidden pair: a friend of one confidant
		// befriends the other — exactly the event that would let a
		// common-neighbour attack resurface the hidden link.
		if day%5 == 0 {
			tgt := targets[rng.Intn(len(targets))]
			nbrs := problem.G.Neighbors(tgt.U)
			if len(nbrs) > 0 {
				w := nbrs[rng.Intn(len(nbrs))]
				if w != tgt.V {
					admitted, deleted, err := rel.addEdge(ctx, w, tgt.V)
					if err != nil {
						log.Fatal(err)
					}
					if admitted && len(deleted) > 0 {
						interventions++
						fmt.Printf("day %2d: triadic closure %d-%d endangered %v — guard deleted %v\n",
							day, w, tgt.V, tgt, deleted)
					}
				}
			}
		}
		// Every few days someone attempts to re-create a hidden link.
		if day%7 == 0 {
			tgt := targets[rng.Intn(len(targets))]
			admitted, _, err := rel.addEdge(ctx, tgt.U, tgt.V)
			if err != nil {
				log.Fatal(err)
			}
			if admitted {
				log.Fatalf("day %d: target %v slipped through!", day, tgt)
			}
			fmt.Printf("day %2d: re-creation of hidden link %v refused\n", day, tgt)
		}
		if s := problem.InitialSimilarity(); s != 0 {
			log.Fatalf("day %d: INVARIANT BROKEN, similarity %d", day, s)
		}
	}

	fmt.Printf("\nafter 30 days: %v\n", problem.G.Summary())
	fmt.Printf("admitted %d links, %d guard interventions, %d re-creation attempts refused\n",
		admissions, interventions, rel.refused)
	fmt.Printf("lifetime deletions: %d; similarity still %d — targets stayed hidden throughout\n",
		rel.deletions, problem.InitialSimilarity())
}

// release is a published graph kept fully protected while it evolves. The
// session's phase-1 graph is the release itself: protect removes each
// run's protectors from it with a delta, so later runs start from what was
// actually published.
type release struct {
	session   *tpp.Protector
	deletions int // protectors removed over the release's lifetime
	refused   int // target links refused by addEdge
}

// protect runs SGB at the critical budget and removes the protectors it
// selected, restoring similarity zero.
func (r *release) protect(ctx context.Context) ([]graph.Edge, error) {
	res, err := r.session.Run(ctx)
	if err != nil || len(res.Protectors) == 0 {
		return nil, err
	}
	if _, err := r.session.Apply(ctx, dynamic.Delta{Remove: res.Protectors}); err != nil {
		return nil, err
	}
	r.deletions += len(res.Protectors)
	return res.Protectors, nil
}

// addEdge admits a new link into the release and re-protects, returning the
// protectors that re-protection deleted (the new link itself is a legal
// protector and often the cheapest fix). A target link is refused
// (admitted=false) and a link already present is a no-op.
func (r *release) addEdge(ctx context.Context, u, v graph.NodeID) (admitted bool, deleted []graph.Edge, err error) {
	e := graph.NewEdge(u, v)
	p := r.session.Problem()
	if p.TargetIndex(e) >= 0 {
		r.refused++
		return false, nil, nil
	}
	if p.G.HasEdgeE(e) {
		return true, nil, nil
	}
	if _, err := r.session.Apply(ctx, dynamic.Delta{Insert: []graph.Edge{e}}); err != nil {
		return false, nil, err
	}
	deleted, err = r.protect(ctx)
	return true, deleted, err
}

// addNode grows the release by one isolated node and returns its ID —
// evolving graphs gain members, not just links.
func (r *release) addNode(ctx context.Context) (graph.NodeID, error) {
	rep, err := r.session.Apply(ctx, dynamic.Delta{AddNodes: 1})
	if err != nil {
		return graph.NoNode, err
	}
	return graph.NodeID(rep.Nodes - 1), nil
}

// pickClusteredTargets selects edges whose endpoints share neighbours, so
// the initial protection has real work to do.
func pickClusteredTargets(g *graph.Graph, n int) []graph.Edge {
	var out []graph.Edge
	for _, e := range g.Edges() {
		if g.CommonNeighborCount(e.U, e.V) >= 2 {
			out = append(out, e)
			if len(out) == n {
				break
			}
		}
	}
	return out
}
