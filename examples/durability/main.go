// Durability: survive a crash with nothing to re-upload.
//
// A long-lived protection session accumulates state that exists nowhere
// else — the mutated graph, the evolved target list, and the warm-start
// selection that makes steady-state re-protection fast. This example walks
// the crash-recovery cycle at the library level (internal/durable, the
// layer behind tppd's -data-dir). A session is one append-only file of
// CRC-framed records: snapshot the live session as the file's first frame,
// append each applied delta as a frame with fsync-before-ack, then
// simulate a power cut — the in-memory session is abandoned and the log's
// final record is torn mid-frame, exactly the shape a mid-append crash
// leaves behind. Recovery truncates the torn tail, replays the intact
// records onto the decoded snapshot, and re-protects: the recovered
// selection is bit-identical to a session that never crashed, because
// selection is a pure function of the logged state. A final compaction
// appends a fresh snapshot frame, so the next boot replays nothing.
//
// Run with: go run ./examples/durability
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/datasets"
	"repro/internal/durable"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/tpp"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "tpp-durability-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A collaboration network with 64 sensitive links, protected once.
	ds := datasets.DBLPSim(1500, 11)
	rng := rand.New(rand.NewSource(11))
	targets := datasets.SampleTargets(ds.Graph, 64, rng)
	session, err := tpp.New(ds.Graph, targets,
		tpp.WithPattern(motif.Triangle), tpp.WithBudget(24))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := session.Run(ctx); err != nil {
		log.Fatal(err)
	}

	// Persist it: the snapshot captures graph, targets, options and the
	// warm-start selection; the motif index is rebuilt on load and checked
	// against recorded invariants instead of being serialized.
	store, err := durable.Open(dir, durable.Options{SyncWrites: true})
	if err != nil {
		log.Fatal(err)
	}
	st, err := session.Snapshot(ctx)
	if err != nil {
		log.Fatal(err)
	}
	handle, err := store.Create(&durable.SessionSnapshot{
		ID: "s1", Created: time.Now(), Runs: 1, State: st,
	})
	if err != nil {
		log.Fatal(err)
	}
	logPath := filepath.Join(dir, "s1.tpplog")
	fmt.Printf("persisted: %d nodes, %d edges, %d targets → %d-byte log holding one snapshot\n",
		st.Graph.NumNodes(), st.Graph.NumEdges(), len(st.Targets), fileSize(logPath))

	// The network evolves. Every applied delta is logged and fsynced before
	// the caller would be acked — the log is the commit point.
	churn := gen.NewMutationChurn(ds.Graph, targets, gen.DefaultChurnRates(), rng)
	var applied []dynamic.Delta
	for i := 0; i < 6; i++ {
		d := dynamic.Delta(churn.Next(8))
		if _, err := session.Apply(ctx, d); err != nil {
			log.Fatal(err)
		}
		if err := handle.AppendDelta(d, nil); err != nil {
			log.Fatal(err)
		}
		applied = append(applied, d)
	}
	want, err := session.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("applied and logged %d deltas; live session selects %d protectors\n",
		len(applied), len(want.Protectors))

	// CRASH. The process dies mid-append: the in-memory session is gone and
	// the last delta record is half-written. Simulate the torn write by
	// chopping bytes off the log's tail.
	size := fileSize(logPath)
	if err := os.Truncate(logPath, size-7); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n-- crash: session memory lost, log torn mid-frame (%d → %d bytes) --\n\n",
		size, size-7)
	_ = handle.Close()

	// Recovery: read the log once, CRC-verify every frame, truncate the
	// torn final frame, decode the snapshot and replay the intact deltas
	// after it. The torn record was never acked — losing it is the
	// contract, not a bug.
	store2, err := durable.Open(dir, durable.Options{SyncWrites: true})
	if err != nil {
		log.Fatal(err)
	}
	snap, tail, handle2, err := store2.Recover("s1")
	if err != nil {
		log.Fatal(err)
	}
	restored, err := tpp.Restore(snap.State)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range tail {
		if _, err := restored.Apply(ctx, e.Delta); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("recovered: snapshot at seq %d + %d intact delta records (torn 6th truncated)\n",
		snap.Seq, len(tail))

	// The recovered session must agree with a crash-free control fed the
	// same surviving prefix — protector for protector.
	control, err := tpp.New(ds.Graph.Clone(), append([]graph.Edge(nil), targets...),
		tpp.WithPattern(motif.Triangle), tpp.WithBudget(24))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := control.Run(ctx); err != nil {
		log.Fatal(err)
	}
	for _, d := range applied[:len(tail)] {
		if _, err := control.Apply(ctx, d); err != nil {
			log.Fatal(err)
		}
	}
	got, err := restored.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	ctl, err := control.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if len(got.Protectors) != len(ctl.Protectors) {
		log.Fatalf("parity broken: %d vs %d protectors", len(got.Protectors), len(ctl.Protectors))
	}
	for i := range got.Protectors {
		if got.Protectors[i] != ctl.Protectors[i] {
			log.Fatalf("parity broken at protector %d: %v vs %v",
				i, got.Protectors[i], ctl.Protectors[i])
		}
	}
	fmt.Printf("parity: recovered selection == crash-free control (%d protectors, warm start: %v)\n",
		len(got.Protectors), got.WarmStart)

	// Compaction appends a fresh snapshot frame and fsyncs it, so the next
	// boot replays nothing; the frames before it are dead bytes, dropped
	// when a later snapshot finds them outgrowing the live state.
	st2, err := restored.Snapshot(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if err := handle2.Compact(&durable.SessionSnapshot{
		ID: "s1", Seq: handle2.Seq(), Created: snap.Created, Runs: snap.Runs + 1, State: st2,
	}); err != nil {
		log.Fatal(err)
	}
	handle2.Close()
	snap3, tail3, handle3, err := store2.Recover("s1")
	if err != nil {
		log.Fatal(err)
	}
	handle3.Close()
	if snap3.Seq != handle2.Seq() || len(tail3) != 0 {
		log.Fatalf("compaction: next boot sees snapshot at seq %d + %d deltas, want seq %d + 0",
			snap3.Seq, len(tail3), handle2.Seq())
	}
	fmt.Printf("compacted: snapshot appended at seq %d (log now %d bytes); the next boot replays 0 deltas\n",
		snap3.Seq, fileSize(logPath))
}

// fileSize returns the size of the file at path.
func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	return fi.Size()
}
