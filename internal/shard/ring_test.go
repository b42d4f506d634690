package shard

import (
	"fmt"
	"testing"
)

func keysFor(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("s-%016x", uint64(i)*0x9e3779b97f4a7c15)
	}
	return keys
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty member list accepted")
	}
	if _, err := NewRing([]string{"a", ""}, 0); err == nil {
		t.Fatal("empty member name accepted")
	}
	if _, err := NewRing([]string{"a", "b", "a"}, 0); err == nil {
		t.Fatal("duplicate member accepted")
	}
}

// TestRingStableMapping: the same key maps to the same member across
// independently constructed rings — the property perfbench's replay
// depends on to rebuild tppd's shard assignment.
func TestRingStableMapping(t *testing.T) {
	members := []string{"shard-0", "shard-1", "shard-2", "shard-3"}
	r1, err := NewRing(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keysFor(2000) {
		i1, n1 := r1.Owner(k)
		i2, n2 := r2.Owner(k)
		if i1 != i2 || n1 != n2 {
			t.Fatalf("key %q: ring1 -> (%d,%s), ring2 -> (%d,%s)", k, i1, n1, i2, n2)
		}
		if members[i1] != n1 {
			t.Fatalf("key %q: owner index %d names %q, Owner returned %q", k, i1, members[i1], n1)
		}
	}
}

// TestRingMemberOrderIrrelevant: the mapping depends on the member SET, not
// the order the members were listed in — two configs naming the same
// members in different order agree on every session's home.
func TestRingMemberOrderIrrelevant(t *testing.T) {
	a, err := NewRing([]string{"alpha", "beta", "gamma"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"gamma", "alpha", "beta"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keysFor(2000) {
		_, na := a.Owner(k)
		_, nb := b.Owner(k)
		if na != nb {
			t.Fatalf("key %q: order A -> %s, order B -> %s", k, na, nb)
		}
	}
}

// TestRingBalance: with virtual nodes, no member of a 4-member ring owns a
// grossly disproportionate share of a uniform keyspace.
func TestRingBalance(t *testing.T) {
	members := []string{"m0", "m1", "m2", "m3"}
	r, err := NewRing(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(members))
	keys := keysFor(40000)
	for _, k := range keys {
		counts[r.OwnerIndex(k)]++
	}
	want := len(keys) / len(members)
	for i, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("member %d owns %d of %d keys (ideal %d): imbalance beyond 2x", i, c, len(keys), want)
		}
	}
}

// TestRingMinimalRebalance: removing one member only remaps the keys that
// member owned; every other key keeps its home. This is the consistent-hash
// contract that makes membership changes cheap.
func TestRingMinimalRebalance(t *testing.T) {
	members := []string{"m0", "m1", "m2", "m3"}
	r, err := NewRing(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	shrunk, err := NewRing([]string{"m0", "m1", "m3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	moved, owned := 0, 0
	for _, k := range keysFor(20000) {
		_, before := r.Owner(k)
		_, after := shrunk.Owner(k)
		if before == "m2" {
			owned++
			if after == "m2" {
				t.Fatalf("key %q still owned by removed member", k)
			}
			continue
		}
		if before != after {
			moved++
		}
	}
	if owned == 0 {
		t.Fatal("test vacuous: removed member owned no keys")
	}
	if moved != 0 {
		t.Fatalf("%d keys not owned by the removed member changed homes", moved)
	}
}

// TestRingGrowRebalanceBounded: adding a member moves roughly 1/n of the
// keyspace to it and nothing between surviving members.
func TestRingGrowRebalanceBounded(t *testing.T) {
	r, err := NewRing([]string{"m0", "m1", "m2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := NewRing([]string{"m0", "m1", "m2", "m3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := keysFor(20000)
	toNew, swapped := 0, 0
	for _, k := range keys {
		_, before := r.Owner(k)
		_, after := grown.Owner(k)
		if before == after {
			continue
		}
		if after == "m3" {
			toNew++
		} else {
			swapped++
		}
	}
	if swapped != 0 {
		t.Fatalf("%d keys moved between surviving members on grow", swapped)
	}
	if toNew == 0 || toNew > len(keys)/2 {
		t.Fatalf("new member took %d of %d keys, want roughly 1/4", toNew, len(keys))
	}
}

func BenchmarkScaleoutRingOwner(b *testing.B) {
	r, err := NewRing([]string{"m0", "m1", "m2", "m3"}, 0)
	if err != nil {
		b.Fatal(err)
	}
	keys := keysFor(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.OwnerIndex(keys[i&1023])
	}
}
