package core

import (
	"fmt"
	"math/rand"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/feasibility"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
	"rmt/internal/view"
)

// requireSameRun asserts two results are observably identical at the
// receiver: same decision, same decidedness, same round count.
func requireSameRun(t *testing.T, label string, in *instance.Instance, memo, fresh *network.Result) {
	t.Helper()
	mv, mok := memo.DecisionOf(in.Receiver)
	fv, fok := fresh.DecisionOf(in.Receiver)
	if mv != fv || mok != fok || memo.Rounds != fresh.Rounds {
		t.Fatalf("%s: memoized run (decision %q/%v, %d rounds) != fresh run (decision %q/%v, %d rounds)",
			label, mv, mok, memo.Rounds, fv, fok, fresh.Rounds)
	}
}

// memoEngines is the engine axis of the differential sweep. Async runs
// under the zero-fault SyncScheduler, which must be round-identical to
// lockstep.
var memoEngines = []struct {
	name   string
	engine network.Engine
}{
	{"lockstep", network.Lockstep},
	{"async", network.Async},
}

// TestReceiverMemoNeverChangesDecisions is the receiver-memoization
// equivalence property, run as a differential sweep: for every feasibility
// fixture (solvable and unsolvable alike), every maximal corruption, every
// strategy of the Byzantine zoo and every execution engine, RMT-PKA with
// the packed/interned warm store must be observably identical to a fresh
// run with Options.DisableMemo — and every engine must agree with
// lockstep, memoized or not.
func TestReceiverMemoNeverChangesDecisions(t *testing.T) {
	type fix struct {
		name string
		in   *instance.Instance
	}
	fixtures := make([]fix, 0, len(feasibility.All())+1)
	for _, f := range feasibility.All() {
		in, err := f.Build(gen.AdHoc)
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, fix{f.Name, in})
	}
	// Chimera is the knowledge-separation instance: unsolvable ad hoc but
	// solvable at radius 2, so the radius-2 build exercises the memo on a
	// deciding run the ad hoc build cannot produce.
	chimera, err := feasibility.MustByName(feasibility.Chimera).Build(gen.Radius2)
	if err != nil {
		t.Fatal(err)
	}
	fixtures = append(fixtures, fix{"chimera@radius2", chimera})

	for _, fx := range fixtures {
		for _, m := range fx.in.MaximalCorruptions() {
			for name := range Strategies(fx.in, m, "forged") {
				var ref *network.Result
				for _, eng := range memoEngines {
					label := fmt.Sprintf("%s/%s/%s", fx.name, name, eng.name)
					// Strategy processes are stateful: build a fresh zoo per run.
					memo, err := Run(fx.in, "real", Strategies(fx.in, m, "forged")[name],
						Options{Engine: eng.engine})
					if err != nil {
						t.Fatal(err)
					}
					fresh, err := Run(fx.in, "real", Strategies(fx.in, m, "forged")[name],
						Options{Engine: eng.engine, DisableMemo: true})
					if err != nil {
						t.Fatal(err)
					}
					requireSameRun(t, label, fx.in, memo, fresh)
					if ref == nil {
						ref = fresh
					} else {
						requireSameRun(t, label+" vs lockstep", fx.in, ref, fresh)
					}
				}
			}
		}
	}
}

func TestReceiverMemoEquivalenceRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized memo-equivalence sweep")
	}
	r := rand.New(rand.NewSource(1606))
	checked := 0
	for trial := 0; trial < 40; trial++ {
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
		in, err := instance.New(g, z, view.AdHoc(g), d, rcv)
		if err != nil {
			continue
		}
		corruptions := append([]nodeset.Set{nodeset.Empty()}, in.MaximalCorruptions()...)
		for _, m := range corruptions {
			memo, err := Run(in, "real", protocol.Silence(m), Options{})
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Run(in, "real", protocol.Silence(m), Options{DisableMemo: true})
			if err != nil {
				t.Fatal(err)
			}
			requireSameRun(t, "random", in, memo, fresh)
			checked++
		}
	}
	if checked < 40 {
		t.Fatalf("only %d runs compared", checked)
	}
}

// newVersionSprayer corrupts node c to announce fresh, never-seen-before
// claims: a fake self-view with an edge to a fictitious node whose ID
// varies per run, plus a fabricated claim from that fictitious node. Every
// run therefore pushes two new claim versions and new trails into the
// instance's shared interners — the worst case for the warm store's
// memory, since nothing is ever reusable.
func newVersionSprayer(in *instance.Instance, c, ghost int, forged network.Value) *Forger {
	ghostView := graph.New()
	ghostView.AddEdge(in.Dealer, ghost)
	ghostView.AddEdge(ghost, c)
	ghostInfo := NodeInfo{
		Node: ghost,
		View: ghostView,
		Z:    adversary.Restricted{Domain: ghostView.Nodes(), Structure: adversary.Trivial()},
	}
	fakeView := in.Gamma.Of(c).Clone()
	fakeView.AddEdge(ghost, c)
	selfInfo := NodeInfo{
		Node: c,
		View: fakeView,
		Z:    adversary.Restricted{Domain: fakeView.Nodes(), Structure: adversary.Trivial()},
	}
	return &Forger{
		ID:        c,
		Neighbors: in.G.Neighbors(c),
		InitAll: []network.Payload{
			InfoMsg{Info: selfInfo, P: graph.Path{c}},
			InfoMsg{Info: ghostInfo, P: graph.Path{ghost, c}},
			ValueMsg{X: forged, P: graph.Path{in.Dealer, ghost, c}},
		},
	}
}

// TestVersionSprayStaysWithinMemoryCaps runs a version-spraying adversary
// for thousands of runs against one instance and asserts the shared warm
// store saturates at its documented caps instead of growing without bound
// — and that saturation is harmless: every run still decides the honest
// value via the two untouched relays, including with memoization off.
func TestVersionSprayStaysWithinMemoryCaps(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-run spray")
	}
	in := feasibility.MustByName(feasibility.TriplePath).MustBuild(gen.AdHoc)
	sh := sharedOf(in)
	const corruptNode = 1
	ghostBase := in.G.MaxID() + 1

	// Enough runs that the two fresh versions per run overflow the
	// claim-version interner (maxInternVers) with room to spare.
	sprayRuns := maxInternVers/2 + 256
	for i := 0; i < sprayRuns; i++ {
		// A handful of fresh dealer values sprays the prebuilt-payload cache
		// past maxDealerVals too; keeping most runs on one value keeps the
		// spray focused on the claim interners.
		xD := network.Value("real")
		if i < 4*maxDealerVals {
			xD = network.Value(fmt.Sprintf("real-%d", i))
		}
		corrupt := map[int]network.Process{
			corruptNode: newVersionSprayer(in, corruptNode, ghostBase+i, "forged"),
		}
		res, err := Run(in, xD, corrupt, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := res.DecisionOf(in.Receiver); !ok || got != xD {
			t.Fatalf("spray run %d: decision = %q, %v; want %q", i, got, ok, xD)
		}
		// Spot-check packed ≡ fresh under the spray as well: the memoized
		// path must stay equivalent even while its caches are saturating.
		if i%512 == 0 {
			fresh, err := Run(in, xD,
				map[int]network.Process{corruptNode: newVersionSprayer(in, corruptNode, ghostBase+i, "forged")},
				Options{DisableMemo: true})
			if err != nil {
				t.Fatal(err)
			}
			requireSameRun(t, fmt.Sprintf("spray run %d", i), in, res, fresh)
		}
	}

	if n := len(sh.vers.ids); n > maxInternVers {
		t.Errorf("claim-version interner grew to %d entries, cap %d", n, maxInternVers)
	} else if n < maxInternVers {
		t.Errorf("claim-version interner holds %d entries after %d spray runs — cap %d never exercised",
			n, sprayRuns, maxInternVers)
	}
	if n := len(sh.paths.keys); n > maxInternPaths {
		t.Errorf("path interner grew to %d entries, cap %d", n, maxInternPaths)
	}
	if n := len(sh.dealerVals); n > maxDealerVals {
		t.Errorf("dealer payload cache grew to %d entries, cap %d", n, maxDealerVals)
	}
	for horizon, cs := range sh.stores {
		if n := cs.len(); n > maxMemoEntries {
			t.Errorf("candidate store (horizon %d) grew to %d records, cap %d", horizon, n, maxMemoEntries)
		}
	}
	for horizon, byNode := range sh.relays {
		for v, rel := range byNode {
			if rel.cache == nil {
				continue
			}
			if n := len(rel.cache.m); n > maxRelayCache {
				t.Errorf("relay %d cache (horizon %d) grew to %d payloads, cap %d", v, horizon, n, maxRelayCache)
			}
		}
	}
}
