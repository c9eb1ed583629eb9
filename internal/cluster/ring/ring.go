// Package ring places bags on borad nodes by consistent hashing: each
// member contributes vnodes virtual points on a 64-bit hash circle, and
// a bag's replica set is the first R distinct members clockwise from the
// bag name's hash. The placement is a pure function of the membership
// list — byte-stable across process restarts and identical on every
// client and daemon reading the same membership file — and adding or
// removing one member moves only ~1/N of the keys (the arcs the changed
// member's points covered), which is what lets a fleet grow without a
// cache-invalidation stampede.
//
// The ring routes, it does not store: every borad in a cluster mounts
// the same shared back end (the paper's Lustre/PVFS deployments), so any
// node *can* serve any bag. Placement decides which R nodes' handle
// pools and block caches a bag's traffic concentrates on — cache
// affinity, not data ownership — which is also why failing over to a
// non-replica node is always safe, merely cold.
package ring

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per member when the caller
// passes zero. 128 points per member keeps the max/mean key imbalance
// under ~1.3 for small clusters (see the ring property test) while the
// whole ring for a 100-node fleet stays under a megabyte.
const DefaultVNodes = 128

// DefaultReplication is the replica-set width R used by callers that do
// not pick their own: two nodes absorb one failure without a cold
// fallback.
const DefaultReplication = 2

// Member is one borad node: a stable name (the hash identity — renaming
// a node moves its keys) and the wire-protocol dial address.
type Member struct {
	Name string
	Addr string
}

// point is one virtual node: a position on the hash circle owned by a
// member.
type point struct {
	hash   uint64
	member int32 // index into members
}

// Ring is an immutable consistent-hash ring over a fixed membership.
// Build one with New; all methods are safe for concurrent use.
type Ring struct {
	members []Member
	points  []point
}

// New builds a ring over members with vnodes virtual points each (zero
// selects DefaultVNodes). Member order does not matter — the ring sorts
// by name so equal membership sets always build identical rings — but
// names must be unique and non-empty.
func New(members []Member, vnodes int) (*Ring, error) {
	if len(members) == 0 {
		return nil, errors.New("ring: empty membership")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	ms := append([]Member(nil), members...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	for i, m := range ms {
		if m.Name == "" {
			return nil, errors.New("ring: member with empty name")
		}
		if i > 0 && ms[i-1].Name == m.Name {
			return nil, fmt.Errorf("ring: duplicate member name %q", m.Name)
		}
	}
	r := &Ring{members: ms, points: make([]point, 0, len(ms)*vnodes)}
	for i, m := range ms {
		for v := 0; v < vnodes; v++ {
			h := hashString(m.Name + "#" + strconv.Itoa(v))
			r.points = append(r.points, point{hash: h, member: int32(i)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.member < b.member // total order even on hash collisions
	})
	return r, nil
}

// Members returns the membership in the ring's canonical (name-sorted)
// order. The returned slice is shared; do not mutate.
func (r *Ring) Members() []Member { return r.members }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Owner returns the primary replica for key: the first member clockwise
// from the key's hash.
func (r *Ring) Owner(key string) Member {
	return r.members[r.walk(key, 1)[0]]
}

// ReplicasFor returns the first n distinct members clockwise from the
// key's hash — the key's replica set, primary first. n is capped at the
// membership size; n <= 0 selects DefaultReplication.
func (r *Ring) ReplicasFor(key string, n int) []Member {
	if n <= 0 {
		n = DefaultReplication
	}
	idxs := r.walk(key, n)
	out := make([]Member, len(idxs))
	for i, mi := range idxs {
		out[i] = r.members[mi]
	}
	return out
}

// walk collects the first n distinct member indexes clockwise from
// key's hash position.
func (r *Ring) walk(key string, n int) []int32 {
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hashString(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]int32, 0, n)
	seen := make(map[int32]struct{}, n)
	for i := 0; len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, ok := seen[p.member]; ok {
			continue
		}
		seen[p.member] = struct{}{}
		out = append(out, p.member)
	}
	return out
}

// hashString is 64-bit FNV-1a followed by a murmur3-style finalizer.
// FNV alone barely avalanches its trailing bytes, so the sequential
// "#0", "#1", ... vnode suffixes would cluster on the circle and ruin
// the balance the virtual nodes exist to provide; the finalizer mix
// spreads them. Inlined rather than hash/fnv so the hot routing path
// allocates nothing, and pinned here as part of the deployment
// contract: changing this function reshuffles every deployed cluster's
// placement (the golden test exists to make that impossible to do by
// accident).
func hashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
