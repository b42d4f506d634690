package tpp

import (
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/telemetry"
)

// Warm-started incremental selection.
//
// A Protector session remembers, after every index-backed SGB run, the
// selection it produced: the protector sequence in order with the realised
// gain of every step, plus whether the run stopped because every remaining
// gain was zero. Between runs, Apply folds each delta's conservative
// touched-edge set (motif.ApplyStats.TouchedEdges) into the state, renaming
// everything through the delta's node remap. The next SGB run then replays
// the remembered sequence step by step instead of restoring the index's
// gain heap over the whole candidate universe, verifying at every step
// that the replayed protector is still the exact greedy argmax:
//
//   - For any edge q outside the accumulated touched set, q's instance set
//     is unchanged between the old and new index (that is TouchedEdges'
//     contract), so after deleting the same protector prefix its gain is
//     exactly what it was in the remembered run — where the remembered
//     protector p_i was the argmax. Untouched candidates therefore cannot
//     beat the replay. A node remap moves a renamed node's edges earlier in
//     id order, which can flip a gain tie, so those edges count as touched.
//   - The replayed step is thus exact iff p_i's current gain still equals
//     its recorded gain and no touched edge outranks it under the greedy
//     order (gain descending, id ascending) — an O(1) + O(|touched|) check.
//
// Replay deletes through DeleteEdgeIDNoHeap: gains and similarities stay
// exactly maintained while the index's argmax heap is left dirty, deferring
// its one O(E) rebuild until something actually peeks. When the remembered
// sequence is exhausted and budget remains, the tail is selected from the
// touched set alone if the previous run ran to exhaustion (any edge with
// positive gain now must be delta-born), or from the index heap otherwise.
// A step that fails verification does not discard the run: the verified
// prefix IS the greedy prefix (each step was proven an exact argmax), so
// selection continues from that step through the index heap — exactly what
// a cold run would pick from there on. Bit-identical results are the
// contract either way; only the threshold check refuses to replay at all.
//
// The state survives every session operation: CT/WT/RD runs reset the index
// before and after, and deltas maintain it through absorb. It is dropped
// only when a delta removes a protector's endpoint mid-sequence (the tail is
// truncated), when the index is lost to an apply error, or when
// WithWarmStart(false) disables the engine.

// maxBudget is the unbounded selection budget used for critical-budget runs.
const maxBudget = int(^uint(0) >> 1)

// warmTouchedDenom sets the fallback threshold: a warm replay is attempted
// only while the accumulated touched set stays at or below 1/warmTouchedDenom
// of the interned candidate universe. Past that, per-step verification scans
// approach the cost of a cold candidate scan, so the session falls back to a
// cold run (counted in WarmFallbacks) and re-snapshots from its result.
// A variable, not a constant, so tests can tighten it to force fallbacks.
var warmTouchedDenom = 4

// warmState is the remembered selection snapshot plus the touched-edge
// accumulation. Edges, not ids: the interned universe is rebuilt by every
// apply, while edge spellings survive (modulo node remaps, which absorb
// applies). Scratch slices are reused across runs so a steady-state
// delta→protect loop settles into allocations proportional to the delta,
// not the candidate universe.
type warmState struct {
	valid      bool
	exhausted  bool         // previous run stopped with every gain zero
	resolved   bool         // ids/touchedIDs match the current interner
	protectors []graph.Edge // remembered selection, current node spelling
	gains      []int        // realised gain of each remembered step
	touched    []graph.Edge // sorted canonical; gains possibly changed by deltas
	mergeBuf   []graph.Edge // double-buffer for the touched merge
	ids        []graph.EdgeID
	touchedIDs []graph.EdgeID
}

// invalidate drops the snapshot but keeps the scratch capacity.
func (ws *warmState) invalidate() { ws.valid = false }

// remember snapshots a just-completed SGB selection on the current session
// state and clears the touched accumulation: per-step gains are recovered
// from the similarity trace (gain_i = trace[i] − trace[i+1]).
func (ws *warmState) remember(res *Result) {
	ws.protectors = append(ws.protectors[:0], res.Protectors...)
	if cap(ws.gains) < len(res.Protectors) {
		ws.gains = make([]int, len(res.Protectors))
	}
	ws.gains = ws.gains[:len(res.Protectors)]
	for i := range res.Protectors {
		ws.gains[i] = res.SimilarityTrace[i] - res.SimilarityTrace[i+1]
	}
	ws.exhausted = res.FinalSimilarity() == 0
	ws.touched = ws.touched[:0]
	ws.resolved = false
	ws.valid = true
}

// absorb folds one committed delta into the snapshot: protectors and the
// accumulated touched set are renamed through the delta's node remap (a
// protector losing an endpoint truncates the remembered sequence there;
// touched edges losing one are simply gone from the universe; the edges of
// renamed nodes in g, the renamed graph, join the touched set), then the
// delta's own touched set — already post-remap — is merged in. When the
// maintained index is passed, the snapshot is re-resolved against its fresh
// interner right here, charging the id translation to the apply (where it is
// O(delta + selection), like everything else on that path) instead of to the
// latency-sensitive replay.
func (ws *warmState) absorb(touched []graph.Edge, remap []graph.NodeID, g *graph.Graph, ix *motif.Index) {
	if !ws.valid {
		return
	}
	if remap != nil {
		for i, e := range ws.protectors {
			if remap[e.U] == graph.NoNode || remap[e.V] == graph.NoNode {
				ws.truncate(i)
				break
			}
			ws.protectors[i] = graph.NewEdge(remap[e.U], remap[e.V])
		}
		kept := ws.touched[:0]
		for _, e := range ws.touched {
			if remap[e.U] == graph.NoNode || remap[e.V] == graph.NoNode {
				continue
			}
			kept = append(kept, graph.NewEdge(remap[e.U], remap[e.V]))
		}
		// A renamed node moved to a lower id, so each of its edges moved
		// earlier in id order: it keeps its gain but can now win a gain tie
		// it lost in the remembered run. Count it as touched so the replay
		// checks it.
		for old, nw := range remap {
			if nw != graph.NoNode && int(nw) != old {
				for _, w := range g.Neighbors(nw) {
					kept = append(kept, graph.NewEdge(nw, w))
				}
			}
		}
		// Renaming can reorder spellings; the merge below needs sorted,
		// duplicate-free input.
		graph.SortEdges(kept)
		ws.touched = slices.Compact(kept)
	}
	ws.mergeBuf = mergeTouched(ws.mergeBuf, ws.touched, touched)
	ws.touched, ws.mergeBuf = ws.mergeBuf, ws.touched
	ws.resolved = false
	if ix != nil {
		ws.resolve(ix.Interner())
	}
}

// truncate cuts the remembered sequence before step i. The surviving prefix
// is still an exact greedy prefix with exact recorded gains, but the
// exhaustion proof no longer covers it, so a replay must finish through the
// index heap.
func (ws *warmState) truncate(i int) {
	ws.protectors = ws.protectors[:i]
	ws.gains = ws.gains[:i]
	ws.exhausted = false
}

// withinThreshold reports whether the accumulated perturbation is small
// enough for a replay to beat a cold run.
func (ws *warmState) withinThreshold(ix *motif.Index) bool {
	return len(ws.touched)*warmTouchedDenom <= ix.Interner().NumEdges()
}

// mergeTouched merges two sorted canonical edge lists into dst (overwritten)
// without duplicates. This is the touched-set merge kernel of the warm-start
// engine: steady state reuses dst's capacity and allocates nothing.
//
//tpp:hotpath
func mergeTouched(dst, a, b []graph.Edge) []graph.Edge {
	dst = dst[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		pa, pb := graph.PackEdge(a[i]), graph.PackEdge(b[j])
		switch {
		case pa < pb:
			dst = append(dst, a[i])
			i++
		case pb < pa:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

// resolve translates the remembered protectors and touched edges into ids of
// the current interned universe, into reused scratch. A protector that left
// the universe resolves to graph.NoEdge (the replay diverges there); a
// touched edge that left is simply dropped — its gain is zero forever.
// Touched ids stay ascending because the interner's id order is canonical
// edge order.
//
//tpp:hotpath
func (ws *warmState) resolve(in *graph.Interner) {
	ws.ids = ws.ids[:0]
	for _, e := range ws.protectors {
		ws.ids = append(ws.ids, in.ID(e))
	}
	ws.touchedIDs = ws.touchedIDs[:0]
	for _, e := range ws.touched {
		if id := in.ID(e); id != graph.NoEdge {
			ws.touchedIDs = append(ws.touchedIDs, id)
		}
	}
	ws.resolved = true
}

// sgbSession is the session-level SGB dispatch: it serves the run from the
// warm-start engine when a usable snapshot exists, falls back to the cold
// greedy otherwise, keeps the warm/cold/fallback counters, and re-snapshots
// the session's warm state from whatever result it produced. Critical-budget
// probes for the other methods run through here too (budget = maxBudget) —
// they are SGB selections and warm-start like any other.
func (pr *Protector) sgbSession(s *settings, env runEnv, k int) (*Result, error) {
	warmable := !s.warmOff
	if pr.warm.valid {
		env.remembered = len(pr.warm.protectors)
	}
	if warmable && pr.warm.valid {
		if pr.warm.withinThreshold(env.ix) {
			res, hit, err := pr.sgbWarm(env, k)
			if err != nil {
				return nil, err
			}
			if hit {
				pr.warmRuns.Add(1)
				env.stages.Add(telemetry.StageWarmReplay, res.Elapsed)
			} else {
				// Some step diverged: the run finished through the index
				// heap from the verified prefix — still bit-identical to
				// cold, but it paid the heap rebuild, so it counts cold.
				pr.coldRuns.Add(1)
				pr.warmFallbacks.Add(1)
				env.stages.Add(telemetry.StageColdSelect, res.Elapsed)
			}
			pr.warm.remember(res)
			return res, nil
		}
		pr.warmFallbacks.Add(1)
	}
	res, err := sgbGreedy(pr.problem, k, sessionScope, env)
	if err != nil {
		return nil, err
	}
	pr.coldRuns.Add(1)
	env.stages.Add(telemetry.StageColdSelect, res.Elapsed)
	if warmable {
		pr.warm.remember(res)
	}
	return res, nil
}

// sgbWarm replays the remembered selection against the maintained index,
// verifying every step, then serves any remaining budget from the tail
// strategy the snapshot licenses. A step that fails verification breaks the
// replay but not the run: the verified prefix is provably the greedy prefix,
// so the remaining budget is served from the index heap — the same picks, in
// the same order, a cold run would make. hit reports whether the whole
// remembered sequence verified (the counted warm-start case); either way the
// result is bit-identical to a cold run's.
func (pr *Protector) sgbWarm(env runEnv, k int) (*Result, bool, error) {
	ix := env.ix
	in := ix.Interner()
	ws := &pr.warm
	if !ws.resolved {
		ws.resolve(in)
	}

	start := time.Now()
	res := newResult(sessionScope.VariantName("SGB-Greedy"), ix.TotalSimilarity(), env.steps(k, in.NumEdges()))

	step, diverged := 0, false
	for step < k && step < len(ws.ids) {
		if err := env.err(); err != nil {
			return nil, false, err
		}
		id, want := ws.ids[step], ws.gains[step]
		if id == graph.NoEdge || ix.GainID(id) != want {
			diverged = true
			break
		}
		for _, q := range ws.touchedIDs {
			if g := ix.GainID(q); g > want || (g == want && q < id) {
				diverged = true
				break
			}
		}
		if diverged {
			break
		}
		ix.DeleteEdgeIDNoHeap(id)
		res.record(in.Edge(id), ix.TotalSimilarity(), time.Since(start))
		env.onStep(res)
		step++
	}
	res.WarmStart = !diverged

	// Without divergence the replay stopped at k or at the end of the
	// remembered sequence, so any budget left is a tail to serve.
	if step < k && ix.TotalSimilarity() > 0 {
		if !diverged && ws.exhausted {
			// The remembered run ended with every gain zero, so any edge
			// with positive gain now was touched by a delta: the tail argmax
			// only ever needs the touched set. Ascending touched ids make
			// first-strict-max match the (gain desc, id asc) tie-break.
			for step < k {
				if err := env.err(); err != nil {
					return nil, false, err
				}
				best, bestGain := graph.NoEdge, 0
				for _, q := range ws.touchedIDs {
					if g := ix.GainID(q); g > bestGain {
						best, bestGain = q, g
					}
				}
				if bestGain == 0 {
					break
				}
				ix.DeleteEdgeIDNoHeap(best)
				res.record(in.Edge(best), ix.TotalSimilarity(), time.Since(start))
				env.onStep(res)
				step++
			}
		} else {
			// Finish cold from the verified prefix (diverged), or serve the
			// tail of a run that was budget-capped (or truncated by a node
			// departure) and so can involve any candidate: the index heap,
			// rebuilt lazily in one pass on the first peek, yields the exact
			// argmax under the same (gain desc, id asc) order the cold
			// engines use.
			for step < k {
				if err := env.err(); err != nil {
					return nil, false, err
				}
				best, bestGain, ok := ix.ArgmaxGainID()
				if !ok || bestGain == 0 {
					break
				}
				ix.DeleteEdgeID(best)
				res.record(in.Edge(best), ix.TotalSimilarity(), time.Since(start))
				env.onStep(res)
				step++
			}
		}
	}

	res.PerTargetFinal = ix.Similarities()
	res.Elapsed = time.Since(start)
	return res, !diverged, nil
}

// WarmRuns reports how many SGB selections this session served from the
// warm-start engine (replay verified end to end).
func (pr *Protector) WarmRuns() int { return int(pr.warmRuns.Load()) }

// ColdRuns reports how many SGB selections ran cold — first runs, runs with
// warm-start disabled, and every fallback (threshold-refused
// replays and replays that diverged and finished through the index heap).
// WarmRuns+ColdRuns is the session's total SGB selection count
// (critical-budget probes for CT/WT/RD included).
func (pr *Protector) ColdRuns() int { return int(pr.coldRuns.Load()) }

// WarmFallbacks reports how many warm-start attempts were abandoned — the
// accumulated perturbation exceeded the threshold, or a replay step no
// longer verified (the run then finished cold from the verified prefix).
// Always <= ColdRuns.
func (pr *Protector) WarmFallbacks() int { return int(pr.warmFallbacks.Load()) }
