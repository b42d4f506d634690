// Package shard holds the byte-budget accountant with LRU ordering that
// drives tppd's admission control and cold-session spill, and a
// consistent-hash ring.
//
// Both halves are deliberately small and dependency-free. tppd keeps all
// sessions in one table under one Budget. The ring no longer places
// anything in tppd; it stays only because perfbench's replay still builds
// one to model the sharded tier it was written against.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// defaultReplicas is the virtual-node count per member. 128 vnodes keep the
// keyspace imbalance across a handful of members within a few percent while
// the ring stays small enough that a rebuild on membership change is
// microseconds.
const defaultReplicas = 128

// Ring is an immutable consistent-hash ring over a set of named members.
// A Ring is safe for concurrent use. The mapping is a pure function of the
// member list: a ring rebuilt over a changed list moves only the keys whose
// owning vnode arcs changed.
type Ring struct {
	members []string // as given (order preserved for index stability)
	hashes  []uint64 // sorted vnode hashes
	owner   []int32  // hashes[i] is owned by members[owner[i]]
}

// NewRing builds a ring over members with the given virtual-node count per
// member (<=0 selects the default). Member names must be non-empty and
// distinct.
func NewRing(members []string, replicas int) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("shard: ring needs at least one member")
	}
	if replicas <= 0 {
		replicas = defaultReplicas
	}
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("shard: empty member name")
		}
		if seen[m] {
			return nil, fmt.Errorf("shard: duplicate member %q", m)
		}
		seen[m] = true
	}
	r := &Ring{
		members: append([]string(nil), members...),
		hashes:  make([]uint64, 0, len(members)*replicas),
		owner:   make([]int32, 0, len(members)*replicas),
	}
	type vnode struct {
		h     uint64
		owner int32
	}
	vnodes := make([]vnode, 0, len(members)*replicas)
	for mi, m := range r.members {
		for v := 0; v < replicas; v++ {
			vnodes = append(vnodes, vnode{h: hashVnode(m, v), owner: int32(mi)})
		}
	}
	sort.Slice(vnodes, func(i, j int) bool {
		if vnodes[i].h != vnodes[j].h {
			return vnodes[i].h < vnodes[j].h
		}
		// Hash collisions between vnodes are broken by member index so the
		// ring stays a pure function of the member list.
		return vnodes[i].owner < vnodes[j].owner
	})
	for _, v := range vnodes {
		r.hashes = append(r.hashes, v.h)
		r.owner = append(r.owner, v.owner)
	}
	return r, nil
}

// Owner maps a key to its owning member, returning the member's index in
// the list NewRing was given and its name. The mapping is stable: the same
// key on the same member list always lands on the same member, in every
// process.
func (r *Ring) Owner(key string) (int, string) {
	h := hashKey(key)
	// First vnode clockwise from the key's position, wrapping past the top.
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	mi := int(r.owner[i])
	return mi, r.members[mi]
}

// OwnerIndex is Owner without the name — the form for a caller that
// indexes its own per-member slice (perfbench's replay).
func (r *Ring) OwnerIndex(key string) int {
	i, _ := r.Owner(key)
	return i
}

// hashKey hashes a session key onto the ring's keyspace: FNV-1a 64 with a
// splitmix64 finalizer. FNV alone is stable but avalanches poorly on short
// ASCII keys (vnode labels like "shard-0#17" cluster badly); the finalizer
// scatters it. Both halves are fixed constants, so every ring built from
// the same member list maps every key identically across processes and
// runs; a seeded or randomized hash would break that.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return mix64(h.Sum64())
}

// hashVnode hashes member replica v onto the keyspace. The "#v" suffix form
// is spelled out (not binary-packed) so the layout is trivially reproducible
// by other implementations.
func hashVnode(member string, v int) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(member))
	_, _ = h.Write([]byte{'#'})
	var buf [20]byte
	b := appendInt(buf[:0], v)
	_, _ = h.Write(b)
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a fixed bijective scrambler with full
// avalanche, applied on top of FNV to spread short-string hashes uniformly
// around the ring.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// appendInt is strconv.AppendInt for small non-negative ints without the
// import.
func appendInt(b []byte, v int) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}
