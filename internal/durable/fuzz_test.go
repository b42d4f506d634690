package durable

import (
	"errors"
	"os"
	"testing"
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
	f.Add(appendWALHeader(nil)) // wrong magic family
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

// FuzzWALReplay: arbitrary bytes against an arbitrary watermark must parse
// into either a clean replay, a typed torn tail (with a consistent good
// prefix), or a typed corruption error — never a panic.
func FuzzWALReplay(f *testing.F) {
	img := appendWALHeader(nil)
	for i := 0; i < 3; i++ {
		d, labels := testDelta(i)
		img = appendFrame(img, uint64(i+1), labels, d)
	}
	f.Add(append([]byte(nil), img...), uint64(0))
	f.Add(img[:len(img)-3], uint64(0))
	f.Add(append([]byte(nil), img...), uint64(2)) // stale prefix
	f.Add(append([]byte(nil), img...), uint64(9)) // all stale
	flipped := append([]byte(nil), img...)
	flipped[walHeaderLen+frameHdrLen] ^= 0xFF
	f.Add(flipped, uint64(0))
	f.Add([]byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, snapSeq uint64) {
		rep, err := parseWAL(data, snapSeq)
		if err != nil {
			if !errors.Is(err, ErrCorruptWAL) {
				t.Fatalf("error %v does not wrap ErrCorruptWAL", err)
			}
			return
		}
		if rep.torn != nil && !errors.Is(rep.torn, ErrTornTail) {
			t.Fatalf("torn report %v does not wrap ErrTornTail", rep.torn)
		}
		if rep.goodLen < 0 || rep.goodLen > int64(len(data)) {
			t.Fatalf("good prefix %d outside [0,%d]", rep.goodLen, len(data))
		}
		last := snapSeq
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
