package cut_test

import (
	"context"
	"fmt"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/core"
	"rmt/internal/cut"
	"rmt/internal/feasibility"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/zcpa"
)

// checker is the definition-independent face of cut.Incremental, so one
// table drives both definitions' incremental checkers.
type checker interface {
	CheckCtx(ctx context.Context, in *instance.Instance) (cut.Witness, bool, error)
	Seed(w cut.Witness, found bool)
	Stats() (repaired, fresh int)
}

type incremental[W cut.Shape] struct{ cut.Incremental[W] }

func (ic *incremental[W]) CheckCtx(ctx context.Context, in *instance.Instance) (cut.Witness, bool, error) {
	w, found, err := ic.Incremental.CheckCtx(ctx, in)
	return cut.Witness(w), found, err
}

func (ic *incremental[W]) Seed(w cut.Witness, found bool) { ic.Incremental.Seed(W(w), found) }

// defs is the table every engine test runs over: Definition 3 (RMT-cut)
// and Definition 7 (RMT 𝒵-pp cut).
var defs = []struct {
	name string
	pred cut.Predicate
	inc  func() checker
}{
	{"def3", core.Def3, func() checker { return &incremental[core.RMTCut]{} }},
	{"def7", zcpa.Def7, func() checker { return &incremental[zcpa.ZppCut]{} }},
}

func forEachDef(t *testing.T, fn func(t *testing.T, pred cut.Predicate, inc func() checker)) {
	for _, d := range defs {
		t.Run(d.name, func(t *testing.T) { fn(t, d.pred, d.inc) })
	}
}

// triplePath is solvable under both definitions and has exactly one
// receiver-side candidate: every larger receiver side touches the dealer.
func triplePath() *instance.Instance {
	return feasibility.MustByName(feasibility.TriplePath).MustBuild(gen.AdHoc)
}

// weakDiamond is unsolvable under both definitions.
func weakDiamond() *instance.Instance {
	return feasibility.MustByName(feasibility.WeakDiamond).MustBuild(gen.AdHoc)
}

// incrLine builds the line 0—1—…—n-1 with a singleton corruption at the
// middle relay: infeasible under both definitions at every knowledge level
// (the middle node is a one-node cut in 𝒵 with C2 = ∅), and every chord
// added strictly on the dealer side keeps the old witness repairable.
func incrLine(tb testing.TB, n int) *instance.Instance {
	tb.Helper()
	in, err := gen.Build(gen.Line(n), adversary.FromSlices([]int{n / 2}), gen.AdHoc, 0, n-1)
	if err != nil {
		tb.Fatal(err)
	}
	return in
}

func applyDelta(t *testing.T, in *instance.Instance, d instance.Delta) *instance.Instance {
	t.Helper()
	next, err := gen.ApplyDelta(in, d, gen.AdHoc)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// TestSearchLive: under a live context the search finds no cut on a
// solvable fixture and a verified witness on an unsolvable one.
func TestSearchLive(t *testing.T) {
	forEachDef(t, func(t *testing.T, pred cut.Predicate, _ func() checker) {
		if _, found, _, err := cut.Search(context.Background(), triplePath(), pred, 0); err != nil || found {
			t.Fatalf("triplePath: found=%v err=%v, want no cut", found, err)
		}
		in := weakDiamond()
		w, found, _, err := cut.Search(context.Background(), in, pred, 0)
		if err != nil || !found {
			t.Fatalf("weakDiamond: found=%v err=%v, want a cut", found, err)
		}
		if err := cut.Verify(in, pred, w); err != nil {
			t.Fatalf("witness does not verify: %v", err)
		}
	})
}

// TestSearchCanceled: a canceled context aborts the enumeration with the
// context's error instead of running the search to completion, which is
// what lets rmtd free a worker slot after a 504.
func TestSearchCanceled(t *testing.T) {
	forEachDef(t, func(t *testing.T, pred cut.Predicate, _ func() checker) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, found, complete, err := cut.Search(ctx, weakDiamond(), pred, 0)
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if found || complete {
			t.Fatalf("canceled search: found=%v complete=%v", found, complete)
		}
	})
}

// TestSearchBudget: a budget that runs out must report an incomplete
// search rather than falsely conclude solvability.
func TestSearchBudget(t *testing.T) {
	forEachDef(t, func(t *testing.T, pred cut.Predicate, _ func() checker) {
		ctx := context.Background()
		in := weakDiamond()
		w, found, complete, _ := cut.Search(ctx, in, pred, 0)
		if !found || !complete {
			t.Fatalf("unbounded: found=%v complete=%v", found, complete)
		}
		if err := cut.Verify(in, pred, w); err != nil {
			t.Fatal(err)
		}
		// A budget of 1 may or may not find the witness, but must say so.
		if _, found, complete, _ := cut.Search(ctx, in, pred, 1); !found && complete {
			t.Fatal("budget exhausted but reported complete")
		}
		// A line has one candidate per prefix of the receiver side, so
		// budget 1 cannot cover it.
		line, err := instance.AdHoc(mustGraph(t, "0-1 1-2 2-3 3-4"), adversary.Trivial(), 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, found, complete, _ := cut.Search(ctx, line, pred, 1); found || complete {
			t.Fatalf("solvable line, budget 1: found=%v complete=%v (want false, false)", found, complete)
		}
		if _, found, complete, _ := cut.Search(ctx, line, pred, 0); found || !complete {
			t.Fatalf("solvable line, unbounded: found=%v complete=%v", found, complete)
		}
		// The triple path has exactly one candidate: budget 1 is complete.
		if _, found, complete, _ := cut.Search(ctx, triplePath(), pred, 1); found || !complete {
			t.Fatalf("triple path, budget 1: found=%v complete=%v (want false, true)", found, complete)
		}
	})
}

// TestIncrementalRepairs: dealer-side chords keep the witness valid, so
// every revision after the first is answered by repair, not enumeration.
func TestIncrementalRepairs(t *testing.T) {
	forEachDef(t, func(t *testing.T, pred cut.Predicate, inc func() checker) {
		ctx := context.Background()
		cur := incrLine(t, 12)
		ic := inc()
		w, found, err := ic.CheckCtx(ctx, cur)
		if err != nil || !found {
			t.Fatalf("line with corruptible middle relay: found=%v err=%v, want a cut", found, err)
		}
		if err := cut.Verify(cur, pred, w); err != nil {
			t.Fatal(err)
		}
		for _, chord := range [][2]int{{0, 2}, {1, 3}, {0, 4}} {
			cur = applyDelta(t, cur, instance.Delta{AddEdges: [][2]int{chord}})
			w, found, err = ic.CheckCtx(ctx, cur)
			if err != nil || !found {
				t.Fatalf("chord %v: found=%v err=%v, want the verdict kept", chord, found, err)
			}
			if err := cut.Verify(cur, pred, w); err != nil {
				t.Fatalf("repaired witness invalid after chord %v: %v", chord, err)
			}
		}
		if repaired, fresh := ic.Stats(); repaired != 3 || fresh != 1 {
			t.Fatalf("Stats() = (%d repaired, %d fresh), want (3, 1)", repaired, fresh)
		}
	})
}

// TestIncrementalFallsBack: when the held witness dies, the checker falls
// back to a fresh search that agrees with cut.Search; once solvable there
// is no certificate, so the next revision is a fresh search again.
func TestIncrementalFallsBack(t *testing.T) {
	forEachDef(t, func(t *testing.T, pred cut.Predicate, inc func() checker) {
		ctx := context.Background()
		in := incrLine(t, 6)
		ic := inc()
		if _, found, _ := ic.CheckCtx(ctx, in); !found {
			t.Fatal("expected infeasible base")
		}
		// 2—4 detours around the corruptible relay 3.
		next := applyDelta(t, in, instance.Delta{AddEdges: [][2]int{{2, 4}}})
		if _, found, _ := ic.CheckCtx(ctx, next); found {
			t.Fatal("detour should make the instance solvable")
		}
		if _, found, _, _ := cut.Search(ctx, next, pred, 0); found {
			t.Fatal("fresh search disagrees with the checker")
		}
		if _, fresh := ic.Stats(); fresh != 2 {
			t.Fatalf("expected 2 fresh searches, got %d", fresh)
		}
		back := applyDelta(t, next, instance.Delta{RemoveEdges: [][2]int{{2, 4}}})
		w, found, _ := ic.CheckCtx(ctx, back)
		if !found {
			t.Fatal("removing the detour should restore infeasibility")
		}
		if err := cut.Verify(back, pred, w); err != nil {
			t.Fatal(err)
		}
	})
}

// TestIncrementalSeed: a checker seeded with a verdict for the current
// revision repairs the seed on the next one instead of enumerating.
func TestIncrementalSeed(t *testing.T) {
	forEachDef(t, func(t *testing.T, pred cut.Predicate, inc func() checker) {
		ctx := context.Background()
		in := incrLine(t, 12)
		w, found, _, _ := cut.Search(ctx, in, pred, 0)
		if !found {
			t.Fatal("expected infeasible base")
		}
		ic := inc()
		ic.Seed(w, true)
		next := applyDelta(t, in, instance.Delta{AddEdges: [][2]int{{0, 2}}})
		if _, found, _ := ic.CheckCtx(ctx, next); !found {
			t.Fatal("seeded checker lost the verdict")
		}
		if repaired, fresh := ic.Stats(); repaired != 1 || fresh != 0 {
			t.Fatalf("seeded checker should repair, not enumerate: (%d, %d)", repaired, fresh)
		}
	})
}

// TestIncrementalCancelRetry: a canceled check leaves the checker's state
// untouched, and a retry under a live context is its first result.
func TestIncrementalCancelRetry(t *testing.T) {
	forEachDef(t, func(t *testing.T, pred cut.Predicate, inc func() checker) {
		in := incrLine(t, 12)
		ic := inc()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, err := ic.CheckCtx(ctx, in); err == nil {
			t.Fatal("canceled context should abort the search")
		}
		w, found, err := ic.CheckCtx(context.Background(), in)
		if err != nil || !found {
			t.Fatalf("retry failed: %v found=%v", err, found)
		}
		if err := cut.Verify(in, pred, w); err != nil {
			t.Fatal(err)
		}
		if repaired, fresh := ic.Stats(); repaired != 0 || fresh != 1 {
			t.Fatalf("Stats() = (%d, %d) after cancel and retry, want (0, 1)", repaired, fresh)
		}
	})
}

func mustGraph(t *testing.T, edges string) *graph.Graph {
	t.Helper()
	g, err := graph.ParseEdgeList(edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// churnRevisions builds the incremental bench workload: the
// corruptible-middle line (always infeasible) followed by revs dealer-side
// chord additions. Every revision leaves the middle-relay witness
// repairable, so the incremental checker answers each with one BFS and one
// candidate evaluation while the fresh search walks ~n/2 candidates.
func churnRevisions(b *testing.B, n, revs int) []*instance.Instance {
	b.Helper()
	out := make([]*instance.Instance, 0, revs+1)
	cur := incrLine(b, n)
	out = append(out, cur)
	for i := 0; i < revs; i++ {
		next, err := gen.ApplyDelta(cur, instance.Delta{AddEdges: [][2]int{{i, i + 2}}}, gen.AdHoc)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, next)
		cur = next
	}
	return out
}

// benchIncremental is the churn bench family: fresh re-runs the full
// search on every revision, reverify answers each revision by repairing
// the previous witness. At ≥200 nodes the gap is structural (linear BFS
// against ~n/2 candidate evaluations), not a constant factor.
func benchIncremental(b *testing.B, pred cut.Predicate, inc func() checker) {
	ctx := context.Background()
	for _, n := range []int{60, 240} {
		revisions := churnRevisions(b, n, 16)
		b.Run(fmt.Sprintf("fresh/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, found, _, _ := cut.Search(ctx, revisions[i%len(revisions)], pred, 0); !found {
					b.Fatal("bench instance must be infeasible")
				}
			}
		})
		b.Run(fmt.Sprintf("reverify/n=%d", n), func(b *testing.B) {
			ic := inc()
			if _, found, _ := ic.CheckCtx(ctx, revisions[0]); !found {
				b.Fatal("bench instance must be infeasible")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, found, _ := ic.CheckCtx(ctx, revisions[i%len(revisions)]); !found {
					b.Fatal("bench instance must be infeasible")
				}
			}
			b.StopTimer()
			if repaired, fresh := ic.Stats(); fresh > 1 || repaired == 0 {
				b.Fatalf("reverify side fell back to enumeration: %d repaired, %d fresh", repaired, fresh)
			}
		})
	}
}

func BenchmarkRMTCutIncremental(b *testing.B) {
	benchIncremental(b, core.Def3, defs[0].inc)
}

func BenchmarkZppCutIncremental(b *testing.B) {
	benchIncremental(b, zcpa.Def7, defs[1].inc)
}
