package shard

import "sync"

// Budget tracks the approximate resident byte footprint of a set of
// sessions against a configurable cap, in least-recently-used order. It is
// bookkeeping only: the owner decides when to spill (it must hold its own
// per-session locks to do that safely) and tells the budget afterwards.
// A Budget is safe for concurrent use; tppd keeps one for its whole
// session table.
type Budget struct {
	mu      sync.Mutex
	cap     int64 // 0 = unlimited
	used    int64
	entries map[string]*entry // guarded by mu
	// Intrusive LRU list: head is most recently used, tail least. The
	// sentinel-free empty state is head == tail == nil.
	head, tail *entry
}

// entry is one resident session's accounting record.
type entry struct {
	id         string
	bytes      int64
	value      any
	prev, next *entry
}

// NewBudget returns a budget with the given byte cap; cap <= 0 disables the
// limit (accounting and LRU order still work, Over never fires).
func NewBudget(capBytes int64) *Budget {
	if capBytes < 0 {
		capBytes = 0
	}
	return &Budget{cap: capBytes, entries: make(map[string]*entry)}
}

// Cap returns the configured byte cap (0 = unlimited).
func (b *Budget) Cap() int64 { return b.cap }

// Used returns the tracked resident bytes.
func (b *Budget) Used() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Set records (or refreshes) a session's footprint and marks it most
// recently used. value rides along for the owner's benefit — the session
// record to spill, opaque to the budget.
func (b *Budget) Set(id string, bytes int64, value any) {
	if bytes < 0 {
		bytes = 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[id]
	if e == nil {
		e = &entry{id: id}
		b.entries[id] = e
	} else {
		b.used -= e.bytes
		b.unlink(e)
	}
	e.bytes = bytes
	e.value = value
	b.used += bytes
	b.pushFront(e)
}

// Touch marks a session most recently used. Unknown ids are ignored (the
// session may have been spilled between the caller's lookup and this call).
func (b *Budget) Touch(id string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[id]
	if e == nil {
		return
	}
	b.unlink(e)
	b.pushFront(e)
}

// Remove drops a session from the accounting, returning the bytes it held.
func (b *Budget) Remove(id string) (bytes int64, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[id]
	if e == nil {
		return 0, false
	}
	delete(b.entries, id)
	b.unlink(e)
	b.used -= e.bytes
	return e.bytes, true
}

// Coldest returns the least-recently-used session for which skip returns
// false — the next spill victim. The caller typically skips the session it
// is serving and victims whose locks it could not take. ok is false when no
// eligible session remains.
func (b *Budget) Coldest(skip func(id string) bool) (id string, value any, bytes int64, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for e := b.tail; e != nil; e = e.prev {
		if skip != nil && skip(e.id) {
			continue
		}
		return e.id, e.value, e.bytes, true
	}
	return "", nil, 0, false
}

// unlink removes e from the LRU list. Caller holds mu.
func (b *Budget) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if b.head == e {
		b.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if b.tail == e {
		b.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used. Caller holds mu.
func (b *Budget) pushFront(e *entry) {
	e.next = b.head
	if b.head != nil {
		b.head.prev = e
	}
	b.head = e
	if b.tail == nil {
		b.tail = e
	}
}
