// Package cut is the one search engine behind the paper's impossibility
// conditions, the RMT-cut (Definition 3) and the RMT 𝒵-pp cut
// (Definition 7). Both are a cut C = C1 ∪ C2 around a receiver-side set B
// with C1 ∈ 𝒵; only the test on C2 differs. A definition is therefore a
// Predicate value, and the search, the verifier and the incremental
// checker exist once. Cover walks the same candidates for the RMT-PKA
// receiver's cover condition (Definition 6).
//
// Completeness of the search (DESIGN.md §4): for any cut C with receiver
// component B, the boundary N(B) ⊆ C is itself a witness for the same B.
// C1 may be replaced by N(B) ∩ M for a maximal M ∈ 𝒵 covering it, since
// 𝒵 is monotone, and both definitions are monotone-decreasing in C2, so
// shrinking C2 to N(B) ∖ M keeps the test passing. Enumerating connected
// receiver-side candidates B with C = N(B), against every maximal M, is
// therefore exhaustive. It is exponential in |V| in the worst case.
package cut

import (
	"context"
	"fmt"

	"rmt/internal/adversary"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
)

// Witness is a cut C = C1 ∪ C2 separating D from R, with B the connected
// component of R in G − C.
type Witness struct {
	C1, C2 nodeset.Set
	B      nodeset.Set
}

// Test is one search's instance of a definition's step-5 condition. Side
// is called once per receiver-side candidate B, so a Test hoists whatever
// depends on B alone there; Holds then decides a C2 for the last B given to
// Side. A Test may memoize across candidates: it lives for one search.
type Test interface {
	Side(b nodeset.Set)
	Holds(c2 nodeset.Set) bool
}

// Predicate is a cut definition, given by its step-5 condition on C2.
type Predicate struct {
	// Name states the condition, for Verify's errors.
	Name string
	// New returns a fresh Test for one search over in.
	New func(in *instance.Instance) Test
}

// Shape is a definition's own witness type: a named Witness that supplies
// its Predicate. It lets Incremental return the caller's witness type.
type Shape interface {
	~struct{ C1, C2, B nodeset.Set }
	Predicate() Predicate
}

// Search looks for a witness of p on in, inspecting at most budget
// receiver-side candidates (0 = unlimited) and polling ctx once per
// candidate. complete reports whether the search space was fully covered;
// if neither found nor complete, the verdict is unknown. A found witness
// is always genuine: Verify accepts it.
func Search(ctx context.Context, in *instance.Instance, p Predicate, budget int) (w Witness, found, complete bool, err error) {
	if !in.G.Connected(in.Dealer, in.Receiver) {
		return trivial(in), true, true, nil
	}
	t := p.New(in)
	inspected := 0
	complete = true
	in.G.ReceiverSideCandidates(in.Dealer, in.Receiver, func(b, cut nodeset.Set) bool {
		if err = ctx.Err(); err != nil {
			complete = false
			return false
		}
		if budget > 0 && inspected >= budget {
			complete = false
			return false
		}
		inspected++
		w, found = side(in, t, b, cut)
		return !found
	})
	return w, found, complete, err
}

// Cover reports whether some receiver-side candidate B of g has a tight
// cut N(B) with N(B) ∩ V(γ(B)) ∈ Z_B, reading Z_B and V(γ(B)) from the
// given caches. This is the cover condition (Definition 6) that the
// RMT-PKA receiver decides on the graph of a claim combination: Definition
// 3's test with C1 = ∅, over claimed rather than true views.
func Cover(g *graph.Graph, dealer, receiver int, joints *adversary.JoinCache, views *nodeset.UnionCache) bool {
	covered := false
	g.ReceiverSideCandidates(dealer, receiver, func(b, cut nodeset.Set) bool {
		covered = joints.JointOf(b).Contains(cut.Intersect(views.Of(b)))
		return !covered
	})
	return covered
}

// trivial is the witness for disconnected terminals: the empty cut.
func trivial(in *instance.Instance) Witness {
	return Witness{C1: nodeset.Empty(), C2: nodeset.Empty(), B: in.G.ComponentOf(in.Receiver)}
}

// side decides one receiver-side candidate b with tight cut N(b): the
// first maximal M ∈ 𝒵 whose C2 = N(b) ∖ M passes t gives the witness.
func side(in *instance.Instance, t Test, b, cut nodeset.Set) (Witness, bool) {
	t.Side(b)
	for _, m := range in.Z.Maximal() {
		c2 := cut.Minus(m)
		if t.Holds(c2) {
			return Witness{C1: cut.Intersect(m), C2: c2, B: b}, true
		}
	}
	return Witness{}, false
}

// Verify checks that w is a witness of p on in. It is the cheap,
// independent check of Search's output or of a witness from anywhere else:
//
//  1. C1 and C2 are disjoint from each other and from {D, R}, and are nodes;
//  2. C = C1 ∪ C2 separates D from R (or they were never connected);
//  3. B is exactly the connected component of R in G − C;
//  4. C1 ∈ 𝒵;
//  5. C2 passes p's condition for B.
func Verify(in *instance.Instance, p Predicate, w Witness) error {
	c := w.C1.Union(w.C2)
	if w.C1.Intersects(w.C2) {
		return fmt.Errorf("cut: C1 %v and C2 %v overlap", w.C1, w.C2)
	}
	if c.Contains(in.Dealer) || c.Contains(in.Receiver) {
		return fmt.Errorf("cut: %v contains a terminal", c)
	}
	if !c.SubsetOf(in.G.Nodes()) {
		return fmt.Errorf("cut: %v contains non-nodes", c)
	}
	comp := in.G.RemoveNodes(c).ComponentOf(in.Receiver)
	if comp.Contains(in.Dealer) {
		return fmt.Errorf("cut: %v does not separate %d from %d", c, in.Dealer, in.Receiver)
	}
	if !comp.Equal(w.B) {
		return fmt.Errorf("cut: B %v is not the receiver component %v", w.B, comp)
	}
	if !in.Z.Contains(w.C1) {
		return fmt.Errorf("cut: C1 %v is not admissible", w.C1)
	}
	t := p.New(in)
	t.Side(w.B)
	if !t.Holds(w.C2) {
		return fmt.Errorf("cut: C2 %v fails %s for B %v", w.C2, p.Name, w.B)
	}
	return nil
}

// Incremental maintains a verdict of W's definition across instance
// revisions (a base instance, then topology deltas). While the instance
// stays infeasible, each revision is answered by repairing the previous
// witness with one BFS and one candidate evaluation; only a failed repair,
// or no previous witness, runs Search. A repaired witness has Search's
// shape and passes the same test, so verdicts always equal a fresh
// Search's, though witnesses may differ.
//
// The zero value is ready to use. Not safe for concurrent use.
type Incremental[W Shape] struct {
	witness         Witness
	found           bool
	repaired, fresh int
}

// Seed primes the checker with a known verdict for the current revision,
// e.g. one decoded from a cache. A seeded witness is trusted; callers
// holding untrusted bytes should verify it first.
func (ic *Incremental[W]) Seed(w W, found bool) {
	ic.witness, ic.found = Witness(w), found
}

// CheckCtx evaluates the next revision, preferring witness repair over a
// fresh search, and remembers the result for the revision after. On a
// context error the checker's state is left untouched (the revision was
// not decided) and the caller may retry.
func (ic *Incremental[W]) CheckCtx(ctx context.Context, in *instance.Instance) (W, bool, error) {
	var zero W
	p := zero.Predicate()
	if ic.found {
		if w, ok := repair(in, p, ic.witness); ok {
			ic.repaired++
			ic.witness = w
			return W(w), true, nil
		}
	}
	w, found, _, err := Search(ctx, in, p, 0)
	if err != nil {
		return zero, false, err
	}
	ic.fresh++
	ic.witness, ic.found = w, found
	return W(w), found, nil
}

// Stats returns how many revisions were answered by witness repair and how
// many needed the full search.
func (ic *Incremental[W]) Stats() (repaired, fresh int) { return ic.repaired, ic.fresh }

// repair tries to turn the previous revision's witness into one for in. If
// the old cut still separates D from R, B' = comp_R(G − C_old) with its
// tight cut N(B') ⊆ C_old is a candidate in Search's shape, and one pass
// over the maximal sets decides it.
func repair(in *instance.Instance, p Predicate, old Witness) (Witness, bool) {
	if !in.G.Connected(in.Dealer, in.Receiver) {
		return trivial(in), true
	}
	c := old.C1.Union(old.C2)
	if c.Contains(in.Dealer) || c.Contains(in.Receiver) {
		return Witness{}, false
	}
	b := in.G.ComponentAvoiding(in.Receiver, c)
	if b.Contains(in.Dealer) {
		return Witness{}, false
	}
	return side(in, p.New(in), b, in.G.Boundary(b))
}
