package protocoltest

import (
	"fmt"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/feasibility"
	"rmt/internal/gen"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
)

// TestMetricsReconcileEverywhere sweeps every registered protocol over the
// worked feasibility fixtures on all three engines and, for the async
// engine, all stock delivery schedules, asserting the message-accounting
// identity MessagesSent = MessagesDelivered + MessagesLost (plus the
// per-round sum) on every run — honest and under a silenced admissible
// corruption, solvable fixture or not.
//
// This is the regression test for the delivery-calendar leak: runs that
// stopped early (receiver decided) with sends still scheduled for future
// rounds used to leave those messages out of both the delivered and lost
// counts, so sent > delivered + lost. The async × delayed-schedule cells of
// this sweep fail on that bug; the engines now drain the calendar into
// MessagesLost when a run ends.
func TestMetricsReconcileEverywhere(t *testing.T) {
	// Partition heal rounds plus MaxSkew delays stretch the small fixtures
	// well past their synchronous round counts; 64 dominates (see
	// scheduleSafety).
	const maxRounds = 64
	type cell struct {
		engine network.Engine
		sched  string // "" = lockstep, no schedule
		seed   int64
	}
	cells := []cell{
		{network.Lockstep, "", 0},
	}
	for _, name := range network.SchedulerNames() {
		for seed := int64(1); seed <= 2; seed++ {
			cells = append(cells, cell{network.Async, name, seed})
		}
	}

	for _, p := range protocol.All() {
		level := gen.AdHoc
		if p.Caps().NeedsFullKnowledge {
			level = gen.FullKnowledge
		}
		// The worked fixtures are sparse; complete-graph protocols sweep
		// the just-feasible sides of the MBRB boundary battery instead.
		type namedInstance struct {
			name  string
			build func() (*instance.Instance, error)
		}
		var fixtures []namedInstance
		switch {
		case p.Caps().CompleteGraph:
			for _, b := range feasibility.MBRBBoundaries() {
				fixtures = append(fixtures, namedInstance{b.Name, b.Feasible})
			}
		case p.Caps().HonestPaths:
			// The worked fixtures' structures cover every D–R path, which
			// honest-path protocols reject; sweep path fixtures whose
			// corruptible ground leaves honest routes instead.
			fixtures = append(fixtures,
				namedInstance{"honest-quad-path", func() (*instance.Instance, error) {
					g, d, r := gen.DisjointPaths(4, 1)
					return gen.Build(g, gen.Singletons(nodeset.Of(1, 2)), level, d, r)
				}},
				namedInstance{"honest-line", func() (*instance.Instance, error) {
					return gen.Build(gen.Line(5), adversary.Trivial(), level, 0, 4)
				}},
			)
		default:
			for _, fx := range feasibility.All() {
				fx := fx
				fixtures = append(fixtures, namedInstance{fx.Name, func() (*instance.Instance, error) {
					return fx.Build(level)
				}})
			}
		}
		for _, fx := range fixtures {
			in, err := fx.build()
			if err != nil {
				t.Fatalf("%s: %s: %v", p.Name(), fx.name, err)
			}
			// Honest run plus the first non-trivial admissible corruption,
			// silenced: a halted recipient is the other source of losses.
			corruptions := []map[int]network.Process{nil}
			for _, m := range in.MaximalCorruptions() {
				if !m.IsEmpty() {
					corruptions = append(corruptions, protocol.Silence(m))
					break
				}
			}
			for _, c := range cells {
				for ci, corrupt := range corruptions {
					var sched network.Scheduler
					if c.sched != "" {
						sched = network.MustScheduler(c.sched, c.seed)
					}
					res, err := protocol.Run(p, in, "x", protocol.Options{
						Engine:    c.engine,
						Scheduler: sched,
						MaxRounds: maxRounds,
						Corrupt:   corrupt,
					})
					if err != nil {
						t.Fatalf("%s/%s/%v: %v", p.Name(), fx.name, c, err)
					}
					label := fmt.Sprintf("%s %s engine=%v sched=%q seed=%d corrupt=%d",
						p.Name(), fx.name, c.engine, c.sched, c.seed, ci)
					if err := res.Metrics.Reconcile(); err != nil {
						t.Errorf("%s: %v", label, err)
					}
					if got := res.Metrics.MessagesDelivered + res.Metrics.MessagesLost; got != res.Metrics.MessagesSent {
						t.Errorf("%s: delivered %d + lost %d = %d, want sent %d", label,
							res.Metrics.MessagesDelivered, res.Metrics.MessagesLost, got, res.Metrics.MessagesSent)
					}
				}
			}
		}
	}
}
