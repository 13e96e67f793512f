package zcpa

import (
	"context"
	"math/rand"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
)

func TestVerifyZppCutAcceptsFound(t *testing.T) {
	in := weakDiamond(t)
	cut, found := findZppCut(in)
	if !found {
		t.Fatal("no cut")
	}
	if err := VerifyZppCut(in, cut); err != nil {
		t.Fatalf("found witness rejected: %v", err)
	}
}

func TestVerifyZppCutRejectsForgeries(t *testing.T) {
	in := weakDiamond(t)
	good, _ := findZppCut(in)
	forgeries := []struct {
		name string
		cut  ZppCut
	}{
		{"overlap", ZppCut{C1: nodeset.Of(1), C2: nodeset.Of(1), B: good.B}},
		{"terminal in cut", ZppCut{C1: nodeset.Of(3), C2: nodeset.Of(1), B: good.B}},
		{"not separating", ZppCut{C1: nodeset.Of(1), C2: nodeset.Empty(), B: nodeset.Of(2, 3)}},
		{"wrong B", ZppCut{C1: good.C1, C2: good.C2, B: nodeset.Of(0, 3)}},
		{"inadmissible C1", ZppCut{C1: nodeset.Of(1, 2), C2: nodeset.Empty(), B: good.B}},
	}
	for _, f := range forgeries {
		if err := VerifyZppCut(in, f.cut); err == nil {
			t.Errorf("forgery %q accepted", f.name)
		}
	}
}

func TestVerifyZppCutLocalCondition(t *testing.T) {
	// Same orientation trick as the RMT-cut test: only {1} admissible.
	in := mustInstance(t, "0-1 0-2 1-3 2-3", adversary.FromSlices([]int{1}), 0, 3)
	bad := ZppCut{C1: nodeset.Of(1), C2: nodeset.Of(2), B: nodeset.Of(3)}
	if err := VerifyZppCut(in, bad); err == nil {
		t.Fatal("verifier accepted a cut violating the N(u)∩C2 condition")
	}
}

func TestVerifyZppCutAllFoundRandom(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	verified := 0
	for trial := 0; trial < 80; trial++ {
		n := 4 + r.Intn(3)
		g := graph.NewWithNodes(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < 0.5 {
					g.AddEdge(u, v)
				}
			}
		}
		z := adversary.Random(r, g.Nodes().Minus(nodeset.Of(0, n-1)), 1+r.Intn(2), 0.4)
		in, err := instance.AdHoc(g, z, 0, n-1)
		if err != nil {
			continue
		}
		cut, found := findZppCut(in)
		if !found {
			continue
		}
		if err := VerifyZppCut(in, cut); err != nil {
			t.Fatalf("trial %d: witness %v rejected: %v", trial, cut, err)
		}
		verified++
	}
	if verified < 10 {
		t.Fatalf("only %d witnesses verified", verified)
	}
}

// findZppCut is the search under a background context, for tests.
func findZppCut(in *instance.Instance) (ZppCut, bool) {
	w, found, _ := FindRMTZppCutCtx(context.Background(), in)
	return w, found
}
