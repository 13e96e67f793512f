package cut_test

import (
	"context"
	"math/rand"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/core"
	"rmt/internal/cut"
	"rmt/internal/feasibility"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
	"rmt/internal/zcpa"
)

// definition3 is Definition 3's condition on C2 read straight off the
// paper: C2 ∩ V(γ(B)) ∈ Z_B with Z_B = ⊕_{v∈B} Z_v, folded here without
// the instance's join caches.
func definition3(in *instance.Instance, b, c2 nodeset.Set) bool {
	var locals []adversary.Restricted
	b.ForEach(func(v int) bool {
		locals = append(locals, in.LocalStructure(v))
		return true
	})
	return adversary.JoinAll(locals...).Contains(c2.Intersect(in.Gamma.Joint(b).Nodes()))
}

// definition7 is Definition 7's condition on C2: ∀u ∈ B, N(u) ∩ C2 ∈ Z_u.
func definition7(in *instance.Instance, b, c2 nodeset.Set) bool {
	ok := true
	b.ForEach(func(u int) bool {
		ok = in.LocalStructure(u).Contains(in.G.Neighbors(u).Intersect(c2))
		return ok
	})
	return ok
}

// bruteForce decides a definition by enumerating every cut C ⊆ V∖{D,R}
// and every C1 ∈ 𝒵 with C1 ⊆ C, without the receiver-side candidate
// enumeration or the boundary argument the engine relies on. It returns
// every witness (C1, C ∖ C1, comp_R(G − C)).
func bruteForce(in *instance.Instance, holds func(in *instance.Instance, b, c2 nodeset.Set) bool) []cut.Witness {
	var out []cut.Witness
	in.G.Nodes().Minus(nodeset.Of(in.Dealer, in.Receiver)).Subsets(func(c nodeset.Set) bool {
		b := in.G.RemoveNodes(c).ComponentOf(in.Receiver)
		if b.Contains(in.Dealer) {
			return true // C does not separate
		}
		c.Subsets(func(c1 nodeset.Set) bool {
			if c2 := c.Minus(c1); in.Z.Contains(c1) && holds(in, b, c2) {
				out = append(out, cut.Witness{C1: c1, C2: c2, B: b})
			}
			return true
		})
		return true
	})
	return out
}

// TestSearchMatchesBruteForce is the completeness oracle for both
// definitions: on every graph over 5 nodes (D = 0, R = 4, all 2¹⁰ edge
// sets) under fixed structure families and one seeded random structure
// each, at ad hoc, radius-1 and full knowledge, on seeded random 6- and
// 7-node instances, and on the feasibility fixtures, cut.Search must find a witness exactly when
// brute force does, its witness must pass Verify, and Verify must accept
// every brute-force witness.
func TestSearchMatchesBruteForce(t *testing.T) {
	const n, d, r = 5, 0, 4
	var pairs [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	relays := nodeset.Of(1, 2, 3)
	families := []adversary.Structure{
		adversary.Trivial(),
		adversary.FromSlices([]int{1}, []int{2}, []int{3}),
		adversary.FromSlices([]int{1, 2}, []int{3}),
		adversary.FromSlices([]int{1, 2}, []int{1, 3}, []int{2, 3}),
	}
	oracles := []struct {
		pred  cut.Predicate
		holds func(in *instance.Instance, b, c2 nodeset.Set) bool
	}{
		{core.Def3, definition3},
		{zcpa.Def7, definition7},
	}
	ctx := context.Background()
	found := make([]int, len(oracles))
	checked, separated := 0, 0
	check := func(in *instance.Instance) {
		checked++
		verdicts := make([]bool, len(oracles))
		for i, o := range oracles {
			want := bruteForce(in, o.holds)
			w, ok, complete, err := cut.Search(ctx, in, o.pred, 0)
			if err != nil || !complete {
				t.Fatalf("search: err=%v complete=%v", err, complete)
			}
			if ok != (len(want) > 0) {
				t.Fatalf("%s on G=%v Z=%v: search found=%v, brute force found %d witnesses %v",
					o.pred.Name, in.G, in.Z, ok, len(want), want)
			}
			verdicts[i] = ok
			if !ok {
				continue
			}
			found[i]++
			if err := cut.Verify(in, o.pred, w); err != nil {
				t.Fatalf("%s on G=%v Z=%v: search witness %v rejected: %v", o.pred.Name, in.G, in.Z, w, err)
			}
			for _, bw := range want {
				if err := cut.Verify(in, o.pred, bw); err != nil {
					t.Fatalf("%s on G=%v Z=%v: brute-force witness %v rejected: %v", o.pred.Name, in.G, in.Z, bw, err)
				}
			}
		}
		if verdicts[0] != verdicts[1] {
			separated++
		}
	}
	levels := []gen.Knowledge{gen.AdHoc, gen.Radius1, gen.FullKnowledge}
	rng := rand.New(rand.NewSource(2016))
	for mask := 0; mask < 1<<len(pairs); mask++ {
		g := graph.NewWithNodes(n)
		for i, p := range pairs {
			if mask&(1<<i) != 0 {
				g.AddEdge(p[0], p[1])
			}
		}
		structures := append(families[:len(families):len(families)], adversary.Random(rng, relays, 1+rng.Intn(3), 0.5))
		for _, z := range structures {
			for _, level := range levels {
				in, err := gen.Build(g, z, level, d, r)
				if err != nil {
					t.Fatalf("G=%v Z=%v %s: %v", g, z, level, err)
				}
				check(in)
			}
		}
	}
	// Larger instances: seeded random draws on 6 and 7 nodes, and every
	// feasibility fixture at every level. The chimera fixture separates the
	// definitions above radius 1, which no 5-node instance does.
	for _, f := range feasibility.All() {
		for _, level := range gen.Levels() {
			check(f.MustBuild(level))
		}
	}
	for i := 0; i < 300; i++ {
		in, err := gen.RandomInstance(rng, 6+i%2, 0.5, 1+rng.Intn(3), 0.4, levels[i%len(levels)])
		if err != nil {
			t.Fatal(err)
		}
		check(in)
	}
	if separated == 0 {
		t.Error("no instance separates Definition 3 from Definition 7; the sweep cannot tell the predicates apart")
	}
	// Both verdicts must occur often, or the oracle proves little.
	for i, o := range oracles {
		t.Logf("%s: %d of %d instances have a cut (%d separate the definitions)", o.pred.Name, found[i], checked, separated)
		if found[i] < checked/10 || found[i] > checked-checked/10 {
			t.Errorf("%s: %d of %d instances have a cut; the sweep is lopsided", o.pred.Name, found[i], checked)
		}
	}
}
