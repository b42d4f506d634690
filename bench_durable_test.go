package repro

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/durable"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/tpp"
)

// Durability overhead and recovery speed: what the WAL costs on the
// steady-state delta→protect loop (the price of -data-dir), what a single
// append costs in isolation (with and without the fsync), and how
// rehydrating a persisted session (snapshot decode + restore + WAL replay)
// compares to building the same session from scratch. BENCH_durable.json
// records the measured numbers.

// benchDurableState snapshots a small real session for the append bench —
// the snapshot content is fixed; only the log grows.
func benchDurableState(b *testing.B) *tpp.SessionState {
	b.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	g := gen.BarabasiAlbertTriad(200, 3, 0.4, rng)
	targets := datasets.SampleTargets(g, 8, rng)
	session, err := tpp.New(g, targets, tpp.WithPattern(motif.Triangle))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := session.Run(ctx); err != nil {
		b.Fatal(err)
	}
	st, err := session.Snapshot(ctx)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkWALAppend measures one committed delta hitting the log: frame
// encode + write (+ fsync under sync=on). The no-sync side must not
// allocate — the zero-alloc append contract.
func BenchmarkWALAppend(b *testing.B) {
	d := dynamic.Delta{Insert: []graph.Edge{
		graph.NewEdge(0, 1), graph.NewEdge(2, 3), graph.NewEdge(4, 5), graph.NewEdge(6, 7),
		graph.NewEdge(8, 9), graph.NewEdge(10, 11), graph.NewEdge(12, 13), graph.NewEdge(14, 15),
	}}
	for _, sync := range []bool{false, true} {
		name := "sync=off"
		if sync {
			name = "sync=on"
		}
		b.Run(name, func(b *testing.B) {
			store, err := durable.Open(b.TempDir(), durable.Options{SyncWrites: sync})
			if err != nil {
				b.Fatal(err)
			}
			h, err := store.Create(&durable.SessionSnapshot{
				ID:      "bench",
				Created: time.Unix(0, 0),
				State:   benchDurableState(b),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer h.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := h.AppendDelta(d, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchDurableLoop is the steady-state serving loop of an evolving durable
// session: per iteration one 8-event mutation batch is applied and (on the
// WAL side) logged, then a budget-capped protection run. The two sides see
// the identical mutation stream, so their gap is the durability overhead.
func benchDurableLoop(b *testing.B, withWAL, syncWrites bool) {
	b.Helper()
	ctx := context.Background()
	var store *durable.Store
	if withWAL {
		var err error
		store, err = durable.Open(b.TempDir(), durable.Options{SyncWrites: syncWrites})
		if err != nil {
			b.Fatal(err)
		}
	}
	var (
		session *tpp.Protector
		churn   *gen.MutationChurn
		h       *durable.Session
		epoch   int
	)
	// Reused AddNodes label block: AppendDelta only encodes the slice, so a
	// static pool keeps label bookkeeping off the measured path (cmd/tppd
	// reuses the request's decoded labels the same way).
	labels := make([]string, 16)
	for i := range labels {
		labels[i] = fmt.Sprintf("n%d", i)
	}
	// Same drift discipline as the warm-start loop bench: regenerate the
	// fixture every rebuildEvery rounds, off the clock, both sides
	// identically.
	const rebuildEvery = 256
	rebuild := func() {
		if h != nil {
			h.Close()
		}
		ds := datasets.DBLPSim(2000, 12)
		rng := rand.New(rand.NewSource(99))
		targets := datasets.SampleTargets(ds.Graph, 128, rng)
		churn = gen.NewMutationChurn(ds.Graph, targets, gen.DefaultChurnRates(), rng)
		var err error
		session, err = tpp.New(ds.Graph, targets, tpp.WithPattern(motif.Triangle), tpp.WithBudget(16))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := session.Run(ctx); err != nil {
			b.Fatal(err)
		}
		if withWAL {
			st, err := session.Snapshot(ctx)
			if err != nil {
				b.Fatal(err)
			}
			epoch++
			h, err = store.Create(&durable.SessionSnapshot{
				ID:      fmt.Sprintf("bench-%d", epoch),
				Created: time.Unix(0, 0),
				State:   st,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	rebuild()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%rebuildEvery == 0 {
			b.StopTimer()
			rebuild()
			b.StartTimer()
		}
		d := dynamic.Delta(churn.Next(8))
		if _, err := session.Apply(ctx, d); err != nil {
			b.Fatal(err)
		}
		if h != nil {
			if err := h.AppendDelta(d, labels[:d.AddNodes]); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := session.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if h != nil {
		h.Close()
	}
}

// BenchmarkDurableLoopOff is the baseline: the delta→protect loop with no
// persistence (a tppd run without -data-dir).
func BenchmarkDurableLoopOff(b *testing.B) {
	b.Run("Triangle/scale=2000/delta=8/budget=16", func(b *testing.B) {
		benchDurableLoop(b, false, false)
	})
}

// BenchmarkDurableLoopWAL is the same loop with every committed delta
// logged — fsynced before the (would-be) ack under sync=on.
func BenchmarkDurableLoopWAL(b *testing.B) {
	for _, sync := range []bool{false, true} {
		name := "Triangle/scale=2000/delta=8/budget=16/sync=off"
		if sync {
			name = "Triangle/scale=2000/delta=8/budget=16/sync=on"
		}
		b.Run(name, func(b *testing.B) {
			benchDurableLoop(b, true, sync)
		})
	}
}

// benchPersistedSession lays down one persisted session: snapshot at seq 0
// plus walEntries logged deltas — the on-disk shape Rehydrate boots from.
func benchPersistedSession(b *testing.B, store *durable.Store, walEntries int) (*gen.MutationChurn, *tpp.Protector) {
	b.Helper()
	ctx := context.Background()
	ds := datasets.DBLPSim(2000, 12)
	rng := rand.New(rand.NewSource(42))
	targets := datasets.SampleTargets(ds.Graph, 128, rng)
	churn := gen.NewMutationChurn(ds.Graph, targets, gen.DefaultChurnRates(), rng)
	session, err := tpp.New(ds.Graph, targets, tpp.WithPattern(motif.Triangle), tpp.WithBudget(16))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := session.Run(ctx); err != nil {
		b.Fatal(err)
	}
	st, err := session.Snapshot(ctx)
	if err != nil {
		b.Fatal(err)
	}
	h, err := store.Create(&durable.SessionSnapshot{
		ID:      "bench",
		Created: time.Unix(0, 0),
		State:   st,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	labels := make([]string, 16)
	for i := range labels {
		labels[i] = fmt.Sprintf("n%d", i)
	}
	for i := 0; i < walEntries; i++ {
		d := dynamic.Delta(churn.Next(8))
		if _, err := session.Apply(ctx, d); err != nil {
			b.Fatal(err)
		}
		if err := h.AppendDelta(d, labels[:d.AddNodes]); err != nil {
			b.Fatal(err)
		}
	}
	return churn, session
}

// BenchmarkRehydrate measures boot-to-first-protect for a persisted
// session: read + decode the snapshot, restore the protector (index rebuilt
// and cross-checked), replay the WAL tail, run one protection.
func BenchmarkRehydrate(b *testing.B) {
	for _, entries := range []int{0, 32} {
		// One persisted session per sub-benchmark, laid down before it runs:
		// recovery only reads the log, so every b.N round can boot the same
		// one instead of rebuilding it.
		store, err := durable.Open(b.TempDir(), durable.Options{})
		if err != nil {
			b.Fatal(err)
		}
		benchPersistedSession(b, store, entries)
		b.Run(fmt.Sprintf("Triangle/scale=2000/wal=%d", entries), func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap, tail, h, err := store.Recover("bench")
				if err != nil {
					b.Fatal(err)
				}
				restored, err := tpp.Restore(snap.State)
				if err != nil {
					b.Fatal(err)
				}
				for _, e := range tail {
					if _, err := restored.Apply(ctx, e.Delta); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := restored.Run(ctx); err != nil {
					b.Fatal(err)
				}
				h.Close()
			}
		})
	}
}

// BenchmarkFreshBuild is the rehydration baseline: build the equivalent
// session from raw inputs — construct, enumerate the motif index, run the
// first protection — as a crash-unsafe server would have to on every boot.
func BenchmarkFreshBuild(b *testing.B) {
	b.Run("Triangle/scale=2000", func(b *testing.B) {
		ctx := context.Background()
		ds := datasets.DBLPSim(2000, 12)
		rng := rand.New(rand.NewSource(42))
		targets := datasets.SampleTargets(ds.Graph, 128, rng)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := ds.Graph.Clone()
			tg := append([]graph.Edge(nil), targets...)
			b.StartTimer()
			session, err := tpp.New(g, tg, tpp.WithPattern(motif.Triangle), tpp.WithBudget(16))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := session.Run(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}
