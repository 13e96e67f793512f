package zcpa

import (
	"context"
	"encoding/binary"
	"fmt"

	"rmt/internal/cut"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
)

// ZppCut is a witness for Definition 7: an RMT 𝒵-pp cut C = C1 ∪ C2
// separating D from R where C1 ∈ 𝒵 and every node u on the receiver side B
// has N(u) ∩ C2 ∈ Z_u. Its existence is exactly the impossibility condition
// for ad hoc RMT (Theorems 7 and 8).
type ZppCut cut.Witness

// Cut returns C1 ∪ C2.
func (c ZppCut) Cut() nodeset.Set { return c.C1.Union(c.C2) }

func (c ZppCut) String() string {
	return fmt.Sprintf("ZppCut(C1=%v, C2=%v, B=%v)", c.C1, c.C2, c.B)
}

// Predicate returns Def7, so cut.Incremental can decide 𝒵-pp cuts.
func (ZppCut) Predicate() cut.Predicate { return Def7 }

// Def7 is Definition 7 as a cut.Predicate: ∀u ∈ B, N(u) ∩ C2 ∈ Z_u.
var Def7 = cut.Predicate{
	Name: "∀u ∈ B: N(u) ∩ C2 ∈ Z_u",
	New: func(in *instance.Instance) cut.Test {
		return &localTest{in: in, memo: make(map[string]bool)}
	},
}

// localTest checks the per-node condition. Candidates share most of their
// (u, N(u) ∩ C2) pairs with their parents in the enumeration, so the
// per-node verdicts are memoized for the whole search, keyed by node and
// intersection; key is the reused lookup buffer.
type localTest struct {
	in   *instance.Instance
	b    nodeset.Set
	memo map[string]bool
	key  []byte
}

func (t *localTest) Side(b nodeset.Set) { t.b = b }

func (t *localTest) Holds(c2 nodeset.Set) bool {
	ok := true
	t.b.ForEach(func(u int) bool {
		part := t.in.G.Neighbors(u).Intersect(c2)
		t.key = part.AppendKey(binary.AppendUvarint(t.key[:0], uint64(u)))
		res, seen := t.memo[string(t.key)]
		if !seen {
			res = t.in.LocalStructure(u).Contains(part)
			t.memo[string(t.key)] = res
		}
		ok = res
		return ok
	})
	return ok
}

// FindRMTZppCutCtx searches the instance for an RMT 𝒵-pp cut (cut.Search
// under Def7), polling ctx once per receiver-side candidate.
func FindRMTZppCutCtx(ctx context.Context, in *instance.Instance) (ZppCut, bool, error) {
	w, found, _, err := cut.Search(ctx, in, Def7, 0)
	return ZppCut(w), found, err
}

// Solvable reports whether ad hoc RMT is solvable on the instance, by the
// tight condition of Theorems 7–8 (no RMT 𝒵-pp cut). By Theorem 7 this is
// exactly when 𝒵-CPA succeeds, which Resilient verifies operationally; the
// two must always agree, and the test suite asserts they do.
func Solvable(in *instance.Instance) bool {
	_, found, _, _ := cut.Search(context.Background(), in, Def7, 0)
	return !found
}

// VerifyZppCut checks that a claimed RMT 𝒵-pp cut witness satisfies
// Definition 7 on the instance (cut.Verify under Def7).
func VerifyZppCut(in *instance.Instance, c ZppCut) error {
	return cut.Verify(in, Def7, cut.Witness(c))
}

// IncrementalCut maintains an RMT 𝒵-pp cut verdict across instance
// revisions by witness repair; see cut.Incremental.
type IncrementalCut = cut.Incremental[ZppCut]

// NewIncrementalCut returns an empty checker; the first check runs fresh.
func NewIncrementalCut() *IncrementalCut { return &IncrementalCut{} }
