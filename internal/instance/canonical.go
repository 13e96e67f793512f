package instance

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
	"sync"

	"rmt/internal/adversary"
	"rmt/internal/graph"
	"rmt/internal/nodeset"
)

// This file defines the canonical content identity of an instance: two
// Instance values describing the same tuple 𝓘 = (G, 𝒵, γ, D, R) — however
// their graphs, structures or views were assembled, and in whatever input
// order — render the same CanonicalString and therefore hash to the same
// CanonicalKey. The key is what the rmtd query daemon reports for every
// instance and shards its fleet by: a client phrasing the same instance with
// permuted edge lists or structure sets gets the same key. The same
// renderer also produces AppendTupleHash, the view-free identity of (G, 𝒵)
// that rmtd's result cache is keyed by.

// canonical carries the lazily computed identity; it lives behind a
// pointer so Instance stays copy-safe and the memo is shared by copies.
type canonical struct {
	once sync.Once
	str  string
	key  string
}

// CanonicalString renders the full instance tuple in a canonical textual
// form: sorted node and edge lists for G, the sorted antichain of maximal
// sets for 𝒵, each node's view graph in node order for γ, then the
// terminals. It is injective on instance tuples (two instances render
// equal strings iff graph, structure, views and terminals all coincide),
// which makes the derived hash a sound cache key.
func (in *Instance) CanonicalString() string {
	in.canon.once.Do(in.renderCanonical)
	return in.canon.str
}

// CanonicalKey returns the canonical content hash of the instance: the
// hex-encoded SHA-256 of CanonicalString. Equal keys identify equal
// instance tuples (up to hash collision); input order of edges, structure
// sets and view edges never influences the key.
func (in *Instance) CanonicalKey() string {
	in.canon.once.Do(in.renderCanonical)
	return in.canon.key
}

func (in *Instance) renderCanonical() {
	b := make([]byte, 0, 512)
	b = append(b, "rmt-instance-v1\n"...)
	b = appendTuple(b, in.G, in.Z)
	b = append(b, "gamma:\n"...)
	in.Gamma.Domain().ForEach(func(v int) bool {
		b = append(b, "  "...)
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, ": "...)
		b = appendGraph(b, in.Gamma.Of(v))
		b = append(b, '\n')
		return true
	})
	b = append(b, "dealer: "...)
	b = strconv.AppendInt(b, int64(in.Dealer), 10)
	b = append(b, "\nreceiver: "...)
	b = strconv.AppendInt(b, int64(in.Receiver), 10)
	b = append(b, '\n')
	in.canon.str = string(b)
	sum := sha256.Sum256(b)
	in.canon.key = hex.EncodeToString(sum[:])
}

// AppendTupleHash appends the hex SHA-256 of the canonical rendering of
// (G, 𝒵) — the "graph:" and "structure:" lines CanonicalString starts
// with — to dst. Permuted or endpoint-flipped edge lists and reordered
// structure sets hash alike. The hash leaves out γ, D and R: a caller
// that fixes how γ derives from G (a knowledge level) and records D and R
// beside the hash identifies the instance tuple as exactly as
// CanonicalKey does, without building a single view.
func AppendTupleHash(dst []byte, g *graph.Graph, z adversary.Structure) []byte {
	var buf [256]byte
	sum := sha256.Sum256(appendTuple(buf[:0], g, z))
	return hex.AppendEncode(dst, sum[:])
}

// appendTuple appends the graph and structure lines of the canonical
// rendering.
func appendTuple(b []byte, g *graph.Graph, z adversary.Structure) []byte {
	b = append(b, "graph: "...)
	b = appendGraph(b, g)
	b = append(b, "\nstructure: "...)
	b = appendStructure(b, z)
	return append(b, '\n')
}

// appendGraph renders nodes and edges in sorted order. The node set is
// included explicitly so isolated nodes are part of the identity.
func appendGraph(b []byte, g *graph.Graph) []byte {
	b = append(b, "V{"...)
	b = g.Nodes().AppendKey(b)
	b = append(b, "} E{"...)
	first := true
	// Nodes ascending, then neighbors v > u ascending: the order of Edges.
	g.Nodes().ForEach(func(u int) bool {
		g.Neighbors(u).ForEach(func(v int) bool {
			if v > u {
				if !first {
					b = append(b, ' ')
				}
				first = false
				b = strconv.AppendInt(b, int64(u), 10)
				b = append(b, '-')
				b = strconv.AppendInt(b, int64(v), 10)
			}
			return true
		})
		return true
	})
	return append(b, '}')
}

// appendStructure renders the antichain of maximal sets sorted by their
// set keys and joined by ';' — the stored antichain order can depend on
// the order sets were supplied in, so it is normalized here.
func appendStructure(b []byte, z adversary.Structure) []byte {
	sets := z.Maximal()
	if len(sets) > 1 {
		sets = slices.Clone(sets)
		slices.SortFunc(sets, nodeset.Set.CompareKey)
	}
	for i, s := range sets {
		if i > 0 {
			b = append(b, ';')
		}
		b = s.AppendKey(b)
	}
	return b
}
