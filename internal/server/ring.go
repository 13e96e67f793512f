package server

import (
	"hash/fnv"
	"sort"
)

// ringVnodes is the number of virtual points each shard contributes to the
// hash ring. 64 points per shard keeps the load split within a few percent
// of uniform for small fleets while keeping the ring tiny.
const ringVnodes = 64

// hashRing is a consistent-hash ring over shard base URLs, keyed by the
// parsed instance tuple (parsedInstance.ownerKey), so placing a request
// needs no instance build. Both the router and every shard build the ring
// from the same shard list, so they agree on which shard owns which
// instance without any coordination; adding a shard moves only ~1/n of the
// keyspace.
type hashRing struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint32
	shard string
}

// newHashRing builds the ring. The shard list order does not matter: points
// are positioned by hash alone.
func newHashRing(shards []string) *hashRing {
	r := &hashRing{points: make([]ringPoint, 0, len(shards)*ringVnodes)}
	for _, s := range shards {
		for i := 0; i < ringVnodes; i++ {
			r.points = append(r.points, ringPoint{hash: ringHash(s, byte(i)), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Ties (astronomically rare) break by name so every ring built from
		// the same shard set is identical.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

func ringHash(s string, vnode byte) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	h.Write([]byte{'#', vnode})
	return h.Sum32()
}

// owner returns the shard owning key: the first ring point at or clockwise
// of the key's hash.
func (r *hashRing) owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	target := h.Sum32()
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= target })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}
