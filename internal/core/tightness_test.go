package core

import (
	"math/rand"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
	"rmt/internal/view"
)

// TestTightnessRandomized is the package-local slice of experiment E2: on
// random small instances across knowledge levels, the RMT-cut condition
// (Theorems 3 & 5) must coincide exactly with RMT-PKA's operational success
// against every maximal silent corruption.
func TestTightnessRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized tightness sweep")
	}
	r := rand.New(rand.NewSource(1606))
	checked := 0
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
		d, rcv := 0, n-1
		z := adversary.Random(r, g.Nodes().Minus(nodeset.Of(d, rcv)), 1+r.Intn(2), 0.4)

		gammas := map[string]view.Function{
			"adhoc":   view.AdHoc(g),
			"radius2": view.Radius(g, 2),
			"full":    view.Full(g),
		}
		for name, gamma := range gammas {
			in, err := instance.New(g, z, gamma, d, rcv)
			if err != nil {
				continue
			}
			solvable := Solvable(in)
			resilient, err := Resilient(in)
			if err != nil {
				t.Fatal(err)
			}
			if solvable != resilient {
				cut, _ := findRMTCut(in)
				t.Fatalf("trial %d (%s): cut condition solvable=%v, simulation=%v\nG=%v\nZ=%v\ncut=%v",
					trial, name, solvable, resilient, g, z, cut)
			}
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("only %d instance/γ pairs checked", checked)
	}
}

// TestMonotoneInKnowledge validates the paper's partial order on view
// functions: refining knowledge can only help (if RMT is solvable under γ'
// and γ refines γ', it stays solvable under γ).
func TestMonotoneInKnowledge(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized monotonicity sweep")
	}
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		n := 4 + r.Intn(3)
		g := graph.NewWithNodes(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < 0.5 {
					g.AddEdge(u, v)
				}
			}
		}
		d, rcv := 0, n-1
		z := adversary.Random(r, g.Nodes().Minus(nodeset.Of(d, rcv)), 2, 0.35)
		prev := false
		for radius := 0; radius <= 3; radius++ {
			in, err := instance.New(g, z, view.Radius(g, radius), d, rcv)
			if err != nil {
				t.Fatal(err)
			}
			cur := Solvable(in)
			if prev && !cur {
				t.Fatalf("trial %d: solvable at radius %d but not at %d\nG=%v\nZ=%v",
					trial, radius-1, radius, g, z)
			}
			prev = cur
		}
	}
}
