package feasibility_test

import (
	"context"
	"os"
	"strconv"
	"testing"

	"rmt/internal/core"
	"rmt/internal/eval"
	"rmt/internal/feasibility"
	"rmt/internal/gen"
	"rmt/internal/instance"
	"rmt/internal/zcpa"
)

// TestIncrementalMatchesFreshAcrossChurn is the churn differential: over
// every feasibility fixture, CHURN_CHAINS (default 100) seeded random
// delta chains are applied step by step, and at every revision the
// incremental RMT-cut and 𝒵-pp-cut checkers must return exactly the fresh
// enumeration's verdict; incremental witnesses must independently verify.
// Chain seeds come from the eval.TrialSeed splitmix64 streams (stream =
// fixture index), so a failure replays from (fixture, chain) alone.
//
// `make churnfuzz` scales the sweep up via CHURN_CHAINS / CHURN_STEPS.
func TestIncrementalMatchesFreshAcrossChurn(t *testing.T) {
	chains := envInt(t, "CHURN_CHAINS", 100)
	steps := envInt(t, "CHURN_STEPS", 6)
	levels := gen.Levels()
	for fi, f := range feasibility.All() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			for chain := 0; chain < chains; chain++ {
				level := levels[chain%len(levels)]
				seed := eval.TrialSeed(2016, fi, chain)
				base, err := f.Build(level)
				if err != nil {
					t.Fatalf("chain %d: %v", chain, err)
				}
				deltas, err := gen.RandomDeltaChain(base, level, steps, seed)
				if err != nil {
					t.Fatalf("chain %d (seed %d): %v", chain, seed, err)
				}
				incRMT := core.NewIncrementalCut()
				incZpp := zcpa.NewIncrementalCut()
				ctx := context.Background()
				cur := base
				for rev := 0; rev <= len(deltas); rev++ {
					if rev > 0 {
						cur, err = gen.ApplyDelta(cur, deltas[rev-1], level)
						if err != nil {
							t.Fatalf("chain %d rev %d (seed %d): %v", chain, rev, seed, err)
						}
					}
					freshRMT, freshFoundRMT, _ := core.FindRMTCutCtx(ctx, cur)
					incW, incFound, _ := incRMT.CheckCtx(ctx, cur)
					if incFound != freshFoundRMT {
						t.Fatalf("chain %d rev %d (seed %d, level %s): incremental RMT-cut verdict %v != fresh %v",
							chain, rev, seed, level, incFound, freshFoundRMT)
					}
					if incFound {
						if err := core.VerifyRMTCut(cur, incW); err != nil {
							t.Fatalf("chain %d rev %d (seed %d): incremental RMT witness invalid: %v", chain, rev, seed, err)
						}
						if err := core.VerifyRMTCut(cur, freshRMT); err != nil {
							t.Fatalf("chain %d rev %d (seed %d): fresh RMT witness invalid: %v", chain, rev, seed, err)
						}
					}
					freshZpp, freshFoundZpp, _ := zcpa.FindRMTZppCutCtx(ctx, cur)
					incZ, incFoundZ, _ := incZpp.CheckCtx(ctx, cur)
					if incFoundZ != freshFoundZpp {
						t.Fatalf("chain %d rev %d (seed %d, level %s): incremental 𝒵-pp verdict %v != fresh %v",
							chain, rev, seed, level, incFoundZ, freshFoundZpp)
					}
					if incFoundZ {
						if err := zcpa.VerifyZppCut(cur, incZ); err != nil {
							t.Fatalf("chain %d rev %d (seed %d): incremental 𝒵-pp witness invalid: %v", chain, rev, seed, err)
						}
						if err := zcpa.VerifyZppCut(cur, freshZpp); err != nil {
							t.Fatalf("chain %d rev %d (seed %d): fresh 𝒵-pp witness invalid: %v", chain, rev, seed, err)
						}
					}
				}
				// The chain's key sequence must never collide with the base
				// key: cached step verdicts can't evict or shadow the base.
				for i, k := range instance.ChainKeys(base, deltas) {
					if k == base.CanonicalKey() {
						t.Fatalf("chain %d: chain key %d equals the base canonical key", chain, i)
					}
				}
			}
		})
	}
}

func envInt(t *testing.T, name string, def int) int {
	t.Helper()
	s := os.Getenv(name)
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		t.Fatalf("%s=%q: want a positive integer", name, s)
	}
	return n
}
