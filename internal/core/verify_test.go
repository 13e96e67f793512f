package core

import (
	"context"
	"math/rand"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/gen"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
)

func TestVerifyRMTCutAcceptsFound(t *testing.T) {
	in := weakDiamond(t)
	cut, found := findRMTCut(in)
	if !found {
		t.Fatal("no cut")
	}
	if err := VerifyRMTCut(in, cut); err != nil {
		t.Fatalf("found witness rejected: %v", err)
	}
}

func TestVerifyRMTCutRejectsForgeries(t *testing.T) {
	in := weakDiamond(t)
	good, _ := findRMTCut(in)
	forgeries := []struct {
		name string
		cut  RMTCut
	}{
		{"overlapping parts", RMTCut{C1: nodeset.Of(1), C2: nodeset.Of(1), B: good.B}},
		{"contains dealer", RMTCut{C1: nodeset.Of(0), C2: nodeset.Of(1, 2), B: good.B}},
		{"not a separator", RMTCut{C1: nodeset.Of(1), C2: nodeset.Empty(), B: nodeset.Of(2, 3)}},
		{"wrong component", RMTCut{C1: good.C1, C2: good.C2, B: nodeset.Of(3, 9)}},
		{"inadmissible C1", RMTCut{C1: nodeset.Of(1, 2), C2: nodeset.Empty(), B: good.B}},
		{"non-nodes", RMTCut{C1: nodeset.Of(42), C2: good.C2, B: good.B}},
	}
	for _, f := range forgeries {
		if err := VerifyRMTCut(in, f.cut); err == nil {
			t.Errorf("forgery %q accepted", f.name)
		}
	}
}

func TestVerifyRMTCutC2Condition(t *testing.T) {
	// Swap the parts of a genuine witness: C2 = the admissible singleton,
	// C1 = the other. On the weak diamond both orientations are genuine
	// (symmetric), so force a failure with a structure where only one
	// orientation works.
	in := adhocInstance(t, "0-1 0-2 1-3 2-3", adversary.FromSlices([]int{1}), 0, 3)
	// C = {1,2}: C1={1}∈Z, C2={2}: N(3)∩{2}={2} ∈ Z_3? Z_3 = Z^{{1,2,3}} =
	// ⟨{1}⟩ → {2} ∉ → condition fails → this is NOT an RMT-cut.
	bad := RMTCut{C1: nodeset.Of(1), C2: nodeset.Of(2), B: nodeset.Of(3)}
	if err := VerifyRMTCut(in, bad); err == nil {
		t.Fatal("verifier accepted a cut violating the Z_B condition")
	}
	// And indeed the instance is solvable.
	if !Solvable(in) {
		t.Fatal("instance should be solvable")
	}
}

func TestVerifyAllFoundWitnessesRandom(t *testing.T) {
	r := rand.New(rand.NewSource(88))
	verified := 0
	for trial := 0; trial < 80; trial++ {
		n := 4 + r.Intn(3)
		g := gen.RandomGNP(r, n, 0.5)
		z := adversary.Random(r, g.Nodes().Minus(nodeset.Of(0, n-1)), 1+r.Intn(2), 0.4)
		in, err := instance.AdHoc(g, z, 0, n-1)
		if err != nil {
			continue
		}
		cut, found := findRMTCut(in)
		if !found {
			continue
		}
		if err := VerifyRMTCut(in, cut); err != nil {
			t.Fatalf("trial %d: found witness %v rejected: %v\nG=%v Z=%v", trial, cut, err, g, z)
		}
		verified++
	}
	if verified < 10 {
		t.Fatalf("only %d witnesses verified", verified)
	}
}

func TestVerifyEmptyCutOnDisconnected(t *testing.T) {
	in := adhocInstance(t, "0-1 2-3", adversary.Trivial(), 0, 3)
	cut, found := findRMTCut(in)
	if !found {
		t.Fatal("no cut on disconnected instance")
	}
	if err := VerifyRMTCut(in, cut); err != nil {
		t.Fatalf("empty cut rejected: %v", err)
	}
}

// findRMTCut is the search under a background context, for tests.
func findRMTCut(in *instance.Instance) (RMTCut, bool) {
	w, found, _ := FindRMTCutCtx(context.Background(), in)
	return w, found
}
