package core

import (
	"context"
	"fmt"

	"rmt/internal/adversary"
	"rmt/internal/cut"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
)

// RMTCut is a witness for Definition 3: a cut C = C1 ∪ C2 separating D
// from R with C1 ∈ 𝒵 and C2 ∩ V(γ(B)) ∈ Z_B, where B is the connected
// component of R in G − C and Z_B = ⊕_{v∈B} Z_v. Its existence is the tight
// impossibility condition for RMT in the partial knowledge model
// (Theorems 3 and 5).
type RMTCut cut.Witness

// Cut returns C1 ∪ C2.
func (c RMTCut) Cut() nodeset.Set { return c.C1.Union(c.C2) }

func (c RMTCut) String() string {
	return fmt.Sprintf("RMTCut(C1=%v, C2=%v, B=%v)", c.C1, c.C2, c.B)
}

// Predicate returns Def3, so cut.Incremental can decide RMT-cuts.
func (RMTCut) Predicate() cut.Predicate { return Def3 }

// Def3 is Definition 3 as a cut.Predicate: C2 ∩ V(γ(B)) ∈ Z_B.
var Def3 = cut.Predicate{
	Name: "C2 ∩ V(γ(B)) ∈ Z_B",
	New:  func(in *instance.Instance) cut.Test { return &jointTest{in: in} },
}

// jointTest computes V(γ(B)) and Z_B once per candidate B, not once per
// maximal set tried against it.
type jointTest struct {
	in  *instance.Instance
	vgb nodeset.Set
	zb  adversary.Restricted
}

func (t *jointTest) Side(b nodeset.Set) {
	t.vgb, t.zb = t.in.JointViewNodes(b), t.in.JointStructure(b)
}

func (t *jointTest) Holds(c2 nodeset.Set) bool { return t.zb.Contains(c2.Intersect(t.vgb)) }

// FindRMTCutCtx searches the instance for an RMT-cut (cut.Search under
// Def3), polling ctx once per receiver-side candidate.
func FindRMTCutCtx(ctx context.Context, in *instance.Instance) (RMTCut, bool, error) {
	w, found, _, err := cut.Search(ctx, in, Def3, 0)
	return RMTCut(w), found, err
}

// Solvable reports whether RMT is solvable on the instance, by the tight
// condition of Theorems 3 and 5 (no RMT-cut). By Theorem 5 this is exactly
// when RMT-PKA succeeds, which Resilient verifies operationally; the two
// must always agree, and the test suite and experiment E2 assert they do.
func Solvable(in *instance.Instance) bool {
	_, found, _, _ := cut.Search(context.Background(), in, Def3, 0)
	return !found
}

// VerifyRMTCut checks that a claimed RMT-cut witness satisfies
// Definition 3 on the instance (cut.Verify under Def3).
func VerifyRMTCut(in *instance.Instance, c RMTCut) error {
	return cut.Verify(in, Def3, cut.Witness(c))
}

// IncrementalCut maintains an RMT-cut verdict across instance revisions by
// witness repair; see cut.Incremental.
type IncrementalCut = cut.Incremental[RMTCut]

// NewIncrementalCut returns an empty checker; the first check runs fresh.
func NewIncrementalCut() *IncrementalCut { return &IncrementalCut{} }
