package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/tpp"
)

// selCounts are SGB selection counters: the replay's answer to tppd's
// tppd_selection_runs_total{mode} and tppd_selection_fallbacks_total.
type selCounts struct{ warm, cold, fallbacks int }

func (c selCounts) add(o selCounts) selCounts {
	return selCounts{c.warm + o.warm, c.cold + o.cold, c.fallbacks + o.fallbacks}
}

func (c selCounts) sub(o selCounts) selCounts {
	return selCounts{c.warm - o.warm, c.cold - o.cold, c.fallbacks - o.fallbacks}
}

func countsOf(pr *tpp.Protector) selCounts {
	return selCounts{pr.WarmRuns(), pr.ColdRuns(), pr.WarmFallbacks()}
}

// replayOut is what one replay of a run's op logs produced.
type replayOut struct {
	measured selCounts // selection counters over the measured phase
	wall     time.Duration
	tr       *tracer // nil when spans were off
	// opIDs maps each replayed op to its span op id; 429s are not replayed.
	opIDs     map[*opRec]int32
	touched   []float64 // motif touched targets per incremental delta
	snapSizes []float64 // encoded snapshot bytes
}

// replayer re-executes session op logs in process through the public
// functions of graph, dynamic, motif, tpp, durable and shard, mirroring
// the calls tppd makes for each request.
type replayer struct {
	cfg config
	tr  *tracer
	// store is the durable layer's scratch store; nil except on the
	// durable workload. spillRate is the share of session touches tppd
	// rehydrated, which the sampled sessions repeat.
	store     *durable.Store
	spillRate float64
	ring      *shard.Ring
	budgets   []*shard.Budget
	out       replayOut
}

// replay runs every session's acknowledged ops in process, two sessions
// at a time, and fails on the first protect whose protectors or final
// similarity differ from what tppd answered.
func replay(ctx context.Context, cfg config, logs []*sessionLog, traced bool, storeDir string, spillRate float64) (*replayOut, error) {
	const workers = 2
	var store *durable.Store
	if cfg.durableEvery > 0 {
		var err error
		if store, err = durable.Open(storeDir, durable.Options{SyncWrites: true}); err != nil {
			return nil, err
		}
	}
	ring, err := shard.NewRing([]string{"shard-0", "shard-1"}, 0)
	if err != nil {
		return nil, err
	}
	epoch := time.Now()
	reps := make([]*replayer, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range reps {
		rp := &replayer{cfg: cfg, store: store, spillRate: spillRate, ring: ring,
			budgets: []*shard.Budget{shard.NewBudget(0), shard.NewBudget(0)},
			out:     replayOut{opIDs: make(map[*opRec]int32)}}
		if traced {
			rp.tr = newTracer(epoch)
		}
		reps[w] = rp
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(logs); i += workers {
				if err := rp.session(ctx, logs[i], int32(i)<<16); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	out := &replayOut{wall: time.Since(epoch), opIDs: make(map[*opRec]int32)}
	if traced {
		out.tr = newTracer(epoch)
	}
	for w, rp := range reps {
		if errs[w] != nil {
			return nil, errs[w]
		}
		out.measured = out.measured.add(rp.out.measured)
		for k, v := range rp.out.opIDs {
			out.opIDs[k] = v
		}
		out.touched = append(out.touched, rp.out.touched...)
		out.snapSizes = append(out.snapSizes, rp.out.snapSizes...)
		if traced {
			out.tr.merge(rp.tr)
		}
	}
	return out, nil
}

// sessionState is one replayed session.
type sessionState struct {
	pr    *tpp.Protector
	names []string
	h     *durable.Session // durable handle (sampled durable sessions only)
}

func (rp *replayer) session(ctx context.Context, s *sessionLog, opBase int32) error {
	st := &sessionState{}
	var before, last selCounts
	inMeasured := false
	durableOn := rp.store != nil && s.idx%rp.cfg.durableEvery == 0
	for i := range s.ops {
		op := &s.ops[i]
		if !op.ok() {
			continue // a 429 changed nothing on the server
		}
		id := opBase + int32(i)
		rp.out.opIDs[op] = id
		if op.phase == phaseMeasured && !inMeasured && st.pr != nil {
			before = countsOf(st.pr)
		}
		if err := rp.op(ctx, s, st, op, id, durableOn); err != nil {
			return fmt.Errorf("session %d (%s) op %d (%s): %w", s.idx, s.id, i, opNames[op.kind], err)
		}
		if op.phase == phaseMeasured {
			inMeasured = true
			if st.pr != nil {
				last = countsOf(st.pr)
			}
		}
	}
	if inMeasured {
		rp.out.measured = rp.out.measured.add(last.sub(before))
	}
	return nil
}

// spills reports whether the sampled durable session spills and
// rehydrates around this op: a fixed hash of the op id against the share
// of touches tppd rehydrated.
func (rp *replayer) spills(s *sessionLog, id int32) bool {
	h := fnv.New32a()
	h.Write([]byte(s.id))
	h.Write([]byte(strconv.Itoa(int(id))))
	return float64(h.Sum32())/float64(1<<32) < rp.spillRate
}

func (rp *replayer) op(ctx context.Context, s *sessionLog, st *sessionState, op *opRec, id int32, durableOn bool) error {
	tr := rp.tr
	root := tr.begin("op."+opNames[op.kind], id, -1)
	defer tr.end(root)
	if durableOn && op.kind != opCreate && rp.spills(s, id) {
		if err := rp.spillAndRehydrate(ctx, s, st, id, root); err != nil {
			return err
		}
	}
	switch op.kind {
	case opCreate:
		sp := tr.begin("graph.build", id, root)
		m, err := buildMirror(s.in.pairs, s.in.targets)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("tpp.new", id, root)
		st.pr, err = newProtector(m, s.in)
		tr.end(sp)
		if err != nil {
			return err
		}
		st.names = slices.Clone(m.names)
		if durableOn {
			snap, err := rp.snapshot(ctx, s, st, id, root)
			if err != nil {
				return err
			}
			sp = tr.begin("durable.create", id, root)
			st.h, err = rp.store.Create(snap)
			tr.end(sp)
			if err != nil {
				return err
			}
		}
	case opDelta:
		d := op.delta.d
		sp := tr.beginDup("dynamic.canonicalize", id, root)
		cd, err := d.Canonicalize()
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.beginDup("dynamic.validate", id, root)
		err = cd.Validate(st.pr.Problem().G, st.pr.Problem().Targets)
		tr.end(sp)
		if err != nil {
			return err
		}
		stages, sctx := rp.stagesCtx(ctx)
		sp = tr.begin("tpp.apply", id, root)
		rep, err := st.pr.Apply(sctx, d)
		tr.end(sp)
		tr.stages(stages, sp)
		if err != nil {
			return err
		}
		if rep.Incremental {
			rp.out.touched = append(rp.out.touched, float64(rep.IndexStats.TouchedTargets))
		}
		st.names = append(st.names, op.delta.labels...)
		if st.h != nil {
			sp = tr.begin("durable.wal_append", id, root)
			err = st.h.AppendDelta(d, op.delta.labels)
			tr.end(sp)
			if err != nil {
				return err
			}
			if st.h.ShouldCompact() {
				snap, err := rp.snapshot(ctx, s, st, id, root)
				if err != nil {
					return err
				}
				sp = tr.begin("durable.compact", id, root)
				err = st.h.Compact(snap)
				tr.end(sp)
				if err != nil {
					return err
				}
			}
		}
	case opProtect:
		stages, sctx := rp.stagesCtx(ctx)
		sp := tr.begin("tpp.run", id, root)
		res, err := st.pr.Run(sctx)
		tr.end(sp)
		tr.stages(stages, sp)
		if err != nil {
			return err
		}
		released := -1
		if op.full {
			sp = tr.begin("tpp.release", id, root)
			released = st.pr.Release(res).NumEdges()
			tr.end(sp)
		}
		if err := checkProtect(op, res, st.names, released); err != nil {
			return err
		}
	case opDelete:
		if st.h != nil {
			sp := tr.begin("durable.destroy", id, root)
			err := st.h.Destroy()
			tr.end(sp)
			if err != nil {
				return err
			}
			st.h = nil
		}
		rp.account(s, st, id, root, true)
		st.pr = nil
		return nil
	}
	rp.account(s, st, id, root, false)
	return nil
}

// account mirrors tppd's per-request footprint bookkeeping: the session's
// memory footprint re-read and set on its shard's budget, or removed on
// delete.
func (rp *replayer) account(s *sessionLog, st *sessionState, id, root int32, remove bool) {
	b := rp.budgets[rp.ring.OwnerIndex(s.id)]
	if remove {
		sp := rp.tr.begin("shard.account", id, root)
		b.Remove(s.id)
		rp.tr.end(sp)
		return
	}
	sp := rp.tr.begin("tpp.memfootprint", id, root)
	bytes := st.pr.MemFootprint()
	rp.tr.end(sp)
	sp = rp.tr.begin("shard.account", id, root)
	b.Set(s.id, bytes, nil)
	b.Touch(s.id)
	rp.tr.end(sp)
}

// stagesCtx attaches a fresh stage recorder when spans are on.
func (rp *replayer) stagesCtx(ctx context.Context) (*telemetry.Stages, context.Context) {
	if rp.tr == nil {
		return nil, ctx
	}
	sp := telemetry.NewStages(nil)
	return sp, telemetry.NewContext(ctx, sp)
}

// snapshot captures the session as tppd persists it. The encode span
// times the codec the durable store runs inside create and snapshot.
func (rp *replayer) snapshot(ctx context.Context, s *sessionLog, st *sessionState, id, root int32) (*durable.SessionSnapshot, error) {
	sp := rp.tr.begin("tpp.snapshot", id, root)
	state, err := st.pr.Snapshot(ctx)
	rp.tr.end(sp)
	if err != nil {
		return nil, err
	}
	var seq uint64
	if st.h != nil {
		seq = st.h.Seq()
	}
	snap := &durable.SessionSnapshot{ID: s.id, Seq: seq, Created: time.Unix(0, 0), Labels: st.names, State: state}
	sp = rp.tr.beginDup("durable.encode", id, root)
	enc := durable.EncodeSnapshot(nil, snap)
	rp.tr.end(sp)
	rp.out.snapSizes = append(rp.out.snapSizes, float64(len(enc)))
	return snap, nil
}

// spillAndRehydrate repeats what tppd does when the memory budget spills a
// session and a later touch brings it back: a final snapshot, then
// recovery from disk and a restore of the protector.
func (rp *replayer) spillAndRehydrate(ctx context.Context, s *sessionLog, st *sessionState, id, root int32) error {
	if st.h == nil {
		return nil
	}
	snap, err := rp.snapshot(ctx, s, st, id, root)
	if err != nil {
		return err
	}
	sp := rp.tr.begin("durable.snapshot", id, root)
	err = st.h.Snapshot(snap)
	rp.tr.end(sp)
	if err != nil {
		return err
	}
	if err := st.h.Close(); err != nil {
		return err
	}
	sp = rp.tr.begin("durable.recover", id, root)
	got, entries, h, err := rp.store.Recover(s.id)
	rp.tr.end(sp)
	if err != nil {
		return err
	}
	st.h = h
	raw := durable.EncodeSnapshot(nil, got)
	sp = rp.tr.beginDup("durable.decode", id, root)
	_, err = durable.DecodeSnapshot(raw)
	rp.tr.end(sp)
	if err != nil {
		return err
	}
	sp = rp.tr.begin("tpp.restore", id, root)
	pr, err := tpp.Restore(got.State)
	rp.tr.end(sp)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if _, err := pr.Apply(ctx, ent.Delta); err != nil {
			return fmt.Errorf("replaying WAL entry %d: %w", ent.Seq, err)
		}
	}
	st.pr = pr
	return nil
}

// newProtector builds the protector tppd's session create builds: the
// request's pattern and worker count, every other option at its wire
// default.
func newProtector(m *mirrorGraph, in *graphInput) (*tpp.Protector, error) {
	method, err := tpp.ParseMethod("")
	if err != nil {
		return nil, err
	}
	division, err := tpp.ParseDivision("")
	if err != nil {
		return nil, err
	}
	engine, err := tpp.ParseEngine("")
	if err != nil {
		return nil, err
	}
	return tpp.New(m.g, m.targets,
		tpp.WithPattern(in.pattern),
		tpp.WithMethod(method),
		tpp.WithDivision(division),
		tpp.WithEngine(engine),
		tpp.WithBudget(0),
		tpp.WithSeed(0),
		tpp.WithWorkers(sessionWorkers),
	)
}

// checkProtect compares one recorded protect response with the replay's
// result: the same protector pairs in the same order, the same final
// similarity and, when the released graph was sent, its size.
func checkProtect(op *opRec, res *tpp.Result, names []string, released int) error {
	got := pairString(edgeLabels(res.Protectors, names))
	if got != op.out.protectors {
		return fmt.Errorf("protectors differ: tppd sent %.120q, replay chose %.120q", op.out.protectors, got)
	}
	if res.FinalSimilarity() != op.out.final {
		return fmt.Errorf("final_similarity differs: tppd %d, replay %d", op.out.final, res.FinalSimilarity())
	}
	if released != op.out.released {
		return fmt.Errorf("released graph differs: tppd sent %d edges, replay has %d", op.out.released, released)
	}
	return nil
}

// edgeLabels renders edges as label pairs.
func edgeLabels(es []graph.Edge, names []string) [][2]string {
	out := make([][2]string, len(es))
	for i, e := range es {
		out[i] = [2]string{names[e.U], names[e.V]}
	}
	return out
}
