package instance

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/graph"
	"rmt/internal/nodeset"
	"rmt/internal/view"
)

// buildFrom assembles an ad hoc instance from an edge list and structure
// sets given in the supplied order — the orders are what the stability
// tests permute.
func buildFrom(t *testing.T, edges [][2]int, sets [][]int, dealer, receiver int) *Instance {
	t.Helper()
	g := graph.New()
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	z := adversary.FromSlices(sets...)
	in, err := New(g, z, view.AdHoc(g), dealer, receiver)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestCanonicalKeyStableUnderInputPermutation: the same instance assembled
// from permuted edge and structure-set input orders must produce the same
// canonical string and key — the property the rmtd result cache relies on.
func TestCanonicalKeyStableUnderInputPermutation(t *testing.T) {
	edges := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 4}, {2, 4}, {3, 4}}
	sets := [][]int{{1}, {2}, {3}}
	ref := buildFrom(t, edges, sets, 0, 4)
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		pe := make([][2]int, len(edges))
		copy(pe, edges)
		r.Shuffle(len(pe), func(i, j int) { pe[i], pe[j] = pe[j], pe[i] })
		// Also flip some edge endpoints: 1-4 and 4-1 are the same channel.
		for i := range pe {
			if r.Intn(2) == 0 {
				pe[i][0], pe[i][1] = pe[i][1], pe[i][0]
			}
		}
		ps := make([][]int, len(sets))
		copy(ps, sets)
		r.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
		in := buildFrom(t, pe, ps, 0, 4)
		if in.CanonicalString() != ref.CanonicalString() {
			t.Fatalf("trial %d: canonical string depends on input order:\n%s\nvs\n%s",
				trial, in.CanonicalString(), ref.CanonicalString())
		}
		if in.CanonicalKey() != ref.CanonicalKey() {
			t.Fatalf("trial %d: canonical key depends on input order", trial)
		}
	}
}

// TestCanonicalKeySeparatesTuples: any change to a component of the tuple
// (topology, structure, knowledge level, terminals) must change the key.
func TestCanonicalKeySeparatesTuples(t *testing.T) {
	edges := [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}}
	base := buildFrom(t, edges, [][]int{{1}, {2}}, 0, 3)
	seen := map[string]string{base.CanonicalKey(): "base"}
	record := func(name string, in *Instance) {
		key := in.CanonicalKey()
		if prev, dup := seen[key]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[key] = name
	}
	record("extra-edge", buildFrom(t, append([][2]int{{1, 2}}, edges...), [][]int{{1}, {2}}, 0, 3))
	record("smaller-structure", buildFrom(t, edges, [][]int{{1}}, 0, 3))
	record("joint-structure", buildFrom(t, edges, [][]int{{1, 2}}, 0, 3))
	record("swapped-terminals", buildFrom(t, edges, [][]int{{1}, {2}}, 3, 0))

	// Same (G, 𝒵, D, R), different γ: knowledge is part of the identity.
	g := graph.New()
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	full, err := New(g, adversary.FromSlices([]int{1}, []int{2}), view.Full(g), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	record("full-knowledge", full)
}

// TestCanonicalKeyConcurrent: the lazily memoized key must be safe for
// concurrent first use — the daemon hashes shared instances from many
// request goroutines.
func TestCanonicalKeyConcurrent(t *testing.T) {
	in := buildFrom(t, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}}, [][]int{{1}, {2}}, 0, 3)
	done := make(chan string, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- in.CanonicalKey() }()
	}
	first := <-done
	for i := 1; i < 8; i++ {
		if k := <-done; k != first {
			t.Fatal("concurrent CanonicalKey calls disagreed")
		}
	}
	if len(first) != 64 || strings.Trim(first, "0123456789abcdef") != "" {
		t.Fatalf("key %q is not hex sha256", first)
	}
}

// TestCanonicalStringMentionsIsolatedNodes: a node with no channels still
// changes the identity (it is part of V and of the view domain).
func TestCanonicalStringMentionsIsolatedNodes(t *testing.T) {
	g := graph.New()
	g.AddEdge(0, 1)
	base, err := New(g, adversary.Trivial(), view.AdHoc(g), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := graph.New()
	h.AddEdge(0, 1)
	h.AddNode(2)
	bigger, err := New(h, adversary.Trivial(), view.AdHoc(h), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if base.CanonicalKey() == bigger.CanonicalKey() {
		t.Fatal("isolated node did not change the canonical key")
	}
}

// TestTupleHashIsTheCanonicalPrefix: AppendTupleHash hashes exactly the
// graph and structure lines of CanonicalString — one renderer serves both —
// and appends to its destination.
func TestTupleHashIsTheCanonicalPrefix(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		g := graph.NewWithNodes(3 + r.Intn(8))
		for u := 0; u < g.NumNodes(); u++ {
			for v := u + 1; v < g.NumNodes(); v++ {
				if r.Intn(3) == 0 {
					g.AddEdge(u, v)
				}
			}
		}
		relays := g.Nodes().Minus(nodeset.Of(0, g.NumNodes()-1))
		z := adversary.Random(r, relays, 1+r.Intn(3), 0.5)
		in, err := New(g, z, view.AdHoc(g), 0, g.NumNodes()-1)
		if err != nil {
			t.Fatal(err)
		}
		s := in.CanonicalString()
		tuple := s[len("rmt-instance-v1\n"):strings.Index(s, "gamma:\n")]
		sum := sha256.Sum256([]byte(tuple))
		if got, want := string(AppendTupleHash([]byte("k="), g, z)), "k="+hex.EncodeToString(sum[:]); got != want {
			t.Fatalf("trial %d: AppendTupleHash = %s, hash of the canonical prefix = %s", trial, got, want)
		}
	}
}
