package durable

import (
	"context"
	"errors"
	"os"
	"testing"

	"repro/internal/graph"
	"repro/internal/tpp"
)

// FuzzSnapshotDecode: no input may panic the decoder or make it allocate
// beyond its guards; every rejection is a typed ErrCorruptSnapshot.
func FuzzSnapshotDecode(f *testing.F) {
	enc := EncodeSnapshot(nil, testSnapshot(f, "s-fuzz", 43))
	f.Add(append([]byte(nil), enc...))
	f.Add(enc[:len(enc)/2])
	flipped := append([]byte(nil), enc...)
	flipped[len(flipped)/3] ^= 0xFF
	f.Add(flipped)
	fixture, err := os.ReadFile(lazyEngineFixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Add([]byte{})
	f.Add([]byte("TPPS"))
	f.Add(appendLogHeader(nil)) // wrong magic family
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("error %v does not wrap ErrCorruptSnapshot", err)
			}
			return
		}
		if snap == nil || snap.State == nil || snap.State.Graph == nil {
			t.Fatal("nil snapshot without an error")
		}
	})
}

// FuzzWALReplay: arbitrary bytes must parse as a session log into either
// a clean replay, a typed torn tail (with a consistent good prefix), or a
// typed corruption error — never a panic. A replay continues the sequence
// of its snapshot frame, and a log with entries has one.
func FuzzWALReplay(f *testing.F) {
	// A one-triangle session keeps the seeds near 100 bytes: the fuzzer
	// minimizes every input that finds new coverage, and on kilobyte
	// seeds that minimization eats the whole time budget.
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	pr, err := tpp.New(g, []graph.Edge{graph.NewEdge(0, 1)})
	if err != nil {
		f.Fatal(err)
	}
	state, err := pr.Snapshot(context.Background())
	if err != nil {
		f.Fatal(err)
	}
	snap := &SessionSnapshot{ID: "s-fuzz", State: state}
	img := appendSnapshotFrame(appendLogHeader(nil), snap)
	for i := 0; i < 3; i++ {
		d, labels := testDelta(i)
		img = appendFrame(img, uint64(i+1), labels, d)
	}
	f.Add(append([]byte(nil), img...))
	f.Add(img[:len(img)-3]) // torn last frame
	snap.Seq = 3
	f.Add(appendSnapshotFrame(append([]byte(nil), img...), snap)) // two snapshots
	flipped := append([]byte(nil), img...)
	flipped[logHeaderLen+frameHdrLen] ^= 0xFF // damaged snapshot frame
	f.Add(flipped)
	f.Add([]byte{})
	f.Add(appendLogHeader(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := parseLog(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptWAL) && !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("error %v wraps neither ErrCorruptWAL nor ErrCorruptSnapshot", err)
			}
			return
		}
		if rep.torn != nil && !errors.Is(rep.torn, ErrTornTail) {
			t.Fatalf("torn report %v does not wrap ErrTornTail", rep.torn)
		}
		if rep.goodLen < 0 || rep.goodLen > int64(len(data)) || (rep.torn == nil && len(data) >= logHeaderLen && rep.goodLen != int64(len(data))) {
			t.Fatalf("good prefix %d of %d bytes (torn: %v)", rep.goodLen, len(data), rep.torn)
		}
		if rep.snap == nil {
			if len(rep.entries) > 0 {
				t.Fatalf("%d entries without a snapshot", len(rep.entries))
			}
			return
		}
		last, err := frameSeq(rep.snap, true)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range rep.entries {
			if e.Seq != last+1 {
				t.Fatalf("entry %d has seq %d after %d", i, e.Seq, last)
			}
			last = e.Seq
		}
		if rep.lastSeq != last {
			t.Fatalf("lastSeq %d, entries end at %d", rep.lastSeq, last)
		}
	})
}
