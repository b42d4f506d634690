package shard

import "testing"

func TestBudgetAccounting(t *testing.T) {
	b := NewBudget(1000)
	b.Set("a", 400, "A")
	b.Set("b", 400, "B")
	if got := b.Used(); got != 800 {
		t.Fatalf("used = %d, want 800", got)
	}
	b.Set("c", 400, "C")
	if got := b.Used(); got != 1200 {
		t.Fatalf("used = %d, want 1200 (the cap does not clamp accounting)", got)
	}
	// Resize in place: same id, new bytes.
	b.Set("a", 100, "A")
	if got := b.Used(); got != 900 {
		t.Fatalf("after resize used = %d, want 900", got)
	}
	if bytes, ok := b.Remove("b"); !ok || bytes != 400 {
		t.Fatalf("Remove(b) = (%d, %v), want (400, true)", bytes, ok)
	}
	if _, ok := b.Remove("b"); ok {
		t.Fatal("double remove succeeded")
	}
	if got, want := b.Used(), int64(500); got != want {
		t.Fatalf("used = %d, want %d", got, want)
	}
}

func TestBudgetLRUOrder(t *testing.T) {
	b := NewBudget(0) // unlimited: order still tracked
	b.Set("a", 1, nil)
	b.Set("b", 1, nil)
	b.Set("c", 1, nil)
	if id, _, _, ok := b.Coldest(nil); !ok || id != "a" {
		t.Fatalf("coldest = %q, want a", id)
	}
	b.Touch("a") // a becomes MRU; b is now coldest
	if id, _, _, ok := b.Coldest(nil); !ok || id != "b" {
		t.Fatalf("after touch coldest = %q, want b", id)
	}
	// Set refreshes recency too.
	b.Set("b", 2, nil)
	if id, _, _, ok := b.Coldest(nil); !ok || id != "c" {
		t.Fatalf("after set coldest = %q, want c", id)
	}
	// Skip walks toward warmer entries.
	if id, _, _, ok := b.Coldest(func(id string) bool { return id == "c" }); !ok || id != "a" {
		t.Fatalf("skip(c) coldest = %q, want a", id)
	}
	b.Remove("a")
	b.Remove("b")
	b.Remove("c")
	if _, _, _, ok := b.Coldest(nil); ok {
		t.Fatal("coldest on empty budget returned an entry")
	}
}

func TestBudgetColdestCarriesValue(t *testing.T) {
	b := NewBudget(10)
	type rec struct{ name string }
	r := &rec{name: "victim"}
	b.Set("x", 8, r)
	id, v, bytes, ok := b.Coldest(nil)
	if !ok || id != "x" || bytes != 8 {
		t.Fatalf("coldest = (%q, %d, %v)", id, bytes, ok)
	}
	if got, _ := v.(*rec); got != r {
		t.Fatalf("value %v is not the stored record", v)
	}
}

func TestBudgetNegativeBytesClamped(t *testing.T) {
	b := NewBudget(100)
	b.Set("a", -5, nil)
	if got := b.Used(); got != 0 {
		t.Fatalf("negative footprint counted: used = %d", got)
	}
}
