// Package attack is the randomized Theorem-4 safety fuzzer: it samples
// instances and admissible corruption sets, corrupts them with every
// registered byzantine strategy, runs every registered protocol on both
// engines, and asserts the paper's safety guarantee — no honest player ever
// decides a value other than x_D while the corruption set is in 𝒵 — plus
// transcript-level engine agreement.
//
// Two guard rails keep the oracle honest:
//
//   - control runs corrupt a minimal NON-admissible superset (a maximal set
//     of 𝒵 plus one honest node); their outcomes are counted but not
//     asserted, documenting that the guarantee being fuzzed is exactly the
//     t ∈ 𝒵 boundary;
//   - a canary battery runs a deliberately unsafe decision rule
//     (internal/attack's gullible receiver) through the same oracle and the
//     sweep FAILS unless the oracle flags it — a safety fuzzer that cannot
//     catch a gullible receiver has no teeth.
package attack

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"rmt/internal/adversary"
	"rmt/internal/byzantine"
	"rmt/internal/eval"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
	"rmt/internal/view"
)

// ForgedValue is the default wrong value injected by value-forging
// strategies. It sorts before the honest dealer value "1", so a decision
// rule that is gullible toward lexicographically small candidates (the
// canary) is reliably fooled.
const ForgedValue = "0!forged"

// xD is the honest dealer value used by every sweep run.
const xD network.Value = "1"

// Config parameterizes a sweep.
type Config struct {
	// Seed is the master seed; per-trial RNGs derive from it via
	// eval.TrialSeed, so a sweep is reproducible at any worker count.
	Seed int64
	// Trials is the number of sampled (instance, corruption) trials.
	Trials int
	// Workers bounds the worker pool (≤ 0 = one per logical CPU).
	Workers int
	// Protocols to exercise (nil = every registered protocol).
	Protocols []string
	// Strategies to exercise (nil = every registered strategy).
	Strategies []string
	// Engines to exercise (nil = lockstep). With more than one, every
	// admissible run must also agree across them.
	Engines []network.Engine
	// Schedules are async delivery schedules to cross with every
	// (instance, protocol, strategy) cell: each named schedule adds one run
	// under the async engine with a per-trial seeded scheduler, asserting
	// the same Theorem-4 oracle. The "sync" schedule additionally asserts
	// transcript- and decision-agreement with the synchronous engines (the
	// zero-fault schedule must be indistinguishable from lockstep). Nil
	// means no schedule runs.
	Schedules []string
	// MABudgets are message-adversary suppression budgets to cross with
	// every (instance, protocol, strategy) cell: for each budget d, every
	// stock suppression policy runs once under lockstep, and every
	// configured schedule runs once more with the seeded random policy on
	// top — the Theorem-4 oracle is safety-only, so it holds under message
	// loss for every protocol. Adversary seeds derive from (Seed, trial),
	// so any violation replays exactly. Nil means no suppression runs.
	MABudgets []int
	// MaxRounds bounds each run (0 = 16, ample for the sampled instances
	// and necessary because nuisance strategies never quiesce).
	MaxRounds int
	// Out, when non-nil, receives one JSONL record per run, in trial
	// order, plus full message-level event traces (network.JSONLTracer)
	// for every violating run and for the canary battery.
	Out io.Writer
}

func (c Config) protocols() []string {
	if len(c.Protocols) > 0 {
		return c.Protocols
	}
	return protocol.Names()
}

func (c Config) strategies() []string {
	if len(c.Strategies) > 0 {
		return c.Strategies
	}
	return byzantine.Names()
}

func (c Config) engines() []network.Engine {
	if len(c.Engines) > 0 {
		return c.Engines
	}
	return []network.Engine{network.Lockstep}
}

func (c Config) maxRounds() int {
	if c.MaxRounds > 0 {
		return c.MaxRounds
	}
	return 16
}

// Violation is one observed breach of the Theorem-4 safety guarantee: an
// honest player decided a value other than x_D under an admissible
// corruption set.
type Violation struct {
	Trial    int           `json:"trial"`
	Instance string        `json:"instance"`
	Protocol string        `json:"protocol"`
	Strategy string        `json:"strategy"`
	Engine   string        `json:"engine"`
	Corrupt  []int         `json:"corrupt"`
	Node     int           `json:"node"`
	Got      network.Value `json:"got"`
}

func (v Violation) String() string {
	return fmt.Sprintf("trial %d %s: %s under %s/%s, corrupt %v: node %d decided %q ≠ %q",
		v.Trial, v.Instance, v.Protocol, v.Strategy, v.Engine, v.Corrupt, v.Node, v.Got, xD)
}

// Mismatch is a transcript- or decision-level disagreement between engines
// on the same deterministic run.
type Mismatch struct {
	Trial    int    `json:"trial"`
	Instance string `json:"instance"`
	Protocol string `json:"protocol"`
	Strategy string `json:"strategy"`
	Detail   string `json:"detail"`
}

// Report aggregates a sweep.
type Report struct {
	Trials int
	Runs   int

	Violations []Violation
	Mismatches []Mismatch

	// ControlRuns / ControlViolations count the non-admissible-superset
	// control runs and how many of them breached safety. Controls are
	// documentation, not assertions: outside 𝒵 the theorem promises
	// nothing.
	ControlRuns       int
	ControlViolations int

	// CanaryRuns / CanaryFlagged count the unsafe-decision-rule battery;
	// the sweep fails unless at least one canary run is flagged.
	CanaryRuns    int
	CanaryFlagged int

	// MBRBCanaryRuns / MBRBCanaryFlagged count the MBRB battery's own
	// teeth check — a receiver that ignores distinct-sender quorums; the
	// sweep fails unless the oracle flags at least one of its runs.
	MBRBCanaryRuns    int
	MBRBCanaryFlagged int

	// Skipped counts (protocol, fixture) cells the matrix left out because
	// the protocol's Assemble rejected the pairing as a capability mismatch
	// (protocol.CapsError) — e.g. SMT on a sample whose corruptible ground
	// covers every D–R path. Skips are expected; aborting on them would let
	// one infeasible pairing kill a whole sweep.
	Skipped int

	// PrivacyRuns / PrivacyViolations count the SMT listening-adversary
	// battery: paired-secret runs whose recorded coalition views must be
	// independent of the secret.
	PrivacyRuns       int
	PrivacyViolations []PrivacyViolation

	// SMTCanaryRuns / SMTCanaryFlagged count the privacy oracle's own teeth
	// check — the plaintext-leaking SMT variant; the sweep fails unless the
	// oracle flags at least one of its runs.
	SMTCanaryRuns    int
	SMTCanaryFlagged int
}

// Err reports whether the sweep establishes what it claims: zero safety
// violations, zero engine disagreements, and a safety oracle with teeth.
func (r *Report) Err() error {
	if len(r.Violations) > 0 {
		return fmt.Errorf("attack: %d Theorem-4 safety violations (first: %s)",
			len(r.Violations), r.Violations[0])
	}
	if len(r.Mismatches) > 0 {
		m := r.Mismatches[0]
		return fmt.Errorf("attack: %d engine disagreements (first: trial %d %s/%s: %s)",
			len(r.Mismatches), m.Trial, m.Protocol, m.Strategy, m.Detail)
	}
	if r.CanaryRuns > 0 && r.CanaryFlagged == 0 {
		return fmt.Errorf("attack: canary decision rule survived %d runs undetected — the safety oracle has no teeth", r.CanaryRuns)
	}
	if r.MBRBCanaryRuns > 0 && r.MBRBCanaryFlagged == 0 {
		return fmt.Errorf("attack: mbrb canary decision rule survived %d runs undetected — the suppression oracle has no teeth", r.MBRBCanaryRuns)
	}
	if len(r.PrivacyViolations) > 0 {
		return fmt.Errorf("attack: %d SMT privacy violations (first: %s)",
			len(r.PrivacyViolations), r.PrivacyViolations[0])
	}
	if r.SMTCanaryRuns > 0 && r.SMTCanaryFlagged == 0 {
		return fmt.Errorf("attack: leaky SMT canary survived %d runs undetected — the privacy oracle has no teeth", r.SMTCanaryRuns)
	}
	return nil
}

// Summary renders a one-paragraph human summary.
func (r *Report) Summary() string {
	return fmt.Sprintf(
		"attack sweep: %d trials, %d runs (%d cells skipped on capability mismatch): "+
			"%d violations, %d engine mismatches; "+
			"%d control runs (%d unsafe, expected outside 𝒵); canary flagged in %d/%d runs; "+
			"mbrb canary flagged in %d/%d runs; "+
			"%d privacy runs, %d violations; leaky smt canary flagged in %d/%d runs",
		r.Trials, r.Runs, r.Skipped, len(r.Violations), len(r.Mismatches),
		r.ControlRuns, r.ControlViolations, r.CanaryFlagged, r.CanaryRuns,
		r.MBRBCanaryFlagged, r.MBRBCanaryRuns,
		r.PrivacyRuns, len(r.PrivacyViolations), r.SMTCanaryFlagged, r.SMTCanaryRuns)
}

// sample is one drawn (instance, corruption, control) trial.
type sample struct {
	desc     string
	in       *instance.Instance
	full     *instance.Instance // full-knowledge clone for NeedsFullKnowledge protocols
	complete *instance.Instance // complete-graph clone for CompleteGraph protocols
	corrupt  nodeset.Set        // admissible: a random maximal set of 𝒵
	control  nodeset.Set        // minimal non-admissible superset, empty if none exists
}

// forProtocol picks the instance clone matching the protocol's capability
// requirements: all three clones share the node set, adversary structure and
// terminals, so the trial's corruption and control sets stay admissible.
func (s *sample) forProtocol(p protocol.Protocol) *instance.Instance {
	switch {
	case p.Caps().NeedsFullKnowledge:
		return s.full
	case p.Caps().CompleteGraph:
		return s.complete
	default:
		return s.in
	}
}

// drawSample derives a deterministic trial fixture from the trial's RNG.
func drawSample(rng *rand.Rand) (*sample, error) {
	var (
		g    *graph.Graph
		z    adversary.Structure
		d, r int
		desc string
	)
	level := gen.Levels()[rng.Intn(len(gen.Levels()))]
	switch rng.Intn(4) {
	case 0:
		paths, hops := 2+rng.Intn(2), 1+rng.Intn(2)
		g, d, r = gen.DisjointPaths(paths, hops)
		z = gen.Singletons(g.Nodes().Minus(nodeset.Of(d, r)))
		desc = fmt.Sprintf("paths(%d,%d)/%s", paths, hops, level)
	case 1:
		k := 2 + rng.Intn(2)
		g, z, d, r = gen.ChimeraScaled(k)
		desc = fmt.Sprintf("chimera(%d)/%s", k, level)
	case 2:
		width := 2 + rng.Intn(2)
		g, d, r = gen.Layered(2, width)
		z = gen.Singletons(g.Nodes().Minus(nodeset.Of(d, r)))
		desc = fmt.Sprintf("layered(2,%d)/%s", width, level)
	default:
		n := 5 + rng.Intn(4)
		in, err := gen.RandomInstance(rng, n, 0.4, 2+rng.Intn(2), 0.3, level)
		if err == nil && hasCorruptibleSet(in) {
			return finishSample(in, fmt.Sprintf("gnp(%d)/%s", n, level), rng)
		}
		// Rare degenerate draw — unbuildable, or an adversary structure whose
		// only admissible set is ∅ (nothing to corrupt). Fall back to a fixed
		// family so the trial still contributes coverage.
		g, d, r = gen.DisjointPaths(3, 1)
		z = gen.Singletons(g.Nodes().Minus(nodeset.Of(d, r)))
		desc = fmt.Sprintf("paths(3,1)/%s", level)
	}
	in, err := gen.Build(g, z, level, d, r)
	if err != nil {
		return nil, fmt.Errorf("attack: building %s: %w", desc, err)
	}
	return finishSample(in, desc, rng)
}

// hasCorruptibleSet reports whether the instance admits any non-empty
// corruption set — the precondition for a meaningful attack trial.
func hasCorruptibleSet(in *instance.Instance) bool {
	for _, t := range in.MaximalCorruptions() {
		if t.Len() > 0 {
			return true
		}
	}
	return false
}

// finishSample picks the trial's corruption set and control superset and
// materializes the full-knowledge clone.
func finishSample(in *instance.Instance, desc string, rng *rand.Rand) (*sample, error) {
	maximal := in.MaximalCorruptions()
	nonEmpty := maximal[:0:0]
	for _, t := range maximal {
		if t.Len() > 0 {
			nonEmpty = append(nonEmpty, t)
		}
	}
	if len(nonEmpty) == 0 {
		return nil, fmt.Errorf("attack: %s has no non-empty corruption set", desc)
	}
	corrupt := nonEmpty[rng.Intn(len(nonEmpty))]

	// Control: the chosen maximal set plus the smallest honest non-terminal
	// that pushes it outside 𝒵.
	control := nodeset.Empty()
	in.HonestNodes(corrupt).ForEach(func(v int) bool {
		if v == in.Dealer || v == in.Receiver {
			return true
		}
		if super := corrupt.Add(v); !in.Admissible(super) {
			control = super
			return false
		}
		return true
	})

	full, err := instance.New(in.G, in.Z, view.Full(in.G), in.Dealer, in.Receiver)
	if err != nil {
		return nil, fmt.Errorf("attack: full-knowledge clone of %s: %w", desc, err)
	}
	cg := graph.New()
	nodes := in.G.Nodes().Members()
	for i, u := range nodes {
		for _, v := range nodes[i+1:] {
			cg.AddEdge(u, v)
		}
	}
	complete, err := instance.AdHoc(cg, in.Z, in.Dealer, in.Receiver)
	if err != nil {
		return nil, fmt.Errorf("attack: complete-graph clone of %s: %w", desc, err)
	}
	return &sample{desc: desc, in: in, full: full, complete: complete, corrupt: corrupt, control: control}, nil
}

// runRecord is the per-run JSONL summary record.
type runRecord struct {
	Type     string        `json:"type"` // "run"
	Trial    int           `json:"trial"`
	Instance string        `json:"instance"`
	Protocol string        `json:"protocol"`
	Strategy string        `json:"strategy"`
	Engine   string        `json:"engine"`
	Corrupt  []int         `json:"corrupt"`
	InZ      bool          `json:"in_z"`
	Rounds   int           `json:"rounds"`
	Messages int           `json:"messages"`
	Decided  bool          `json:"decided"`
	Value    network.Value `json:"value,omitempty"`
	Safe     bool          `json:"safe"`
	// Message-adversary runs only: the suppression policy, its budget, and
	// how many copies it actually dropped.
	MAPolicy   string `json:"ma_policy,omitempty"`
	MABudget   int    `json:"ma_budget,omitempty"`
	Suppressed int    `json:"suppressed,omitempty"`
}

// trialResult is everything one trial reports back to the aggregator.
type trialResult struct {
	err        error
	runs       int
	skipped    int
	violations []Violation
	mismatches []Mismatch
	ctrlRuns   int
	ctrlViol   int
	records    []runRecord
	// violating runs to re-trace for the JSONL stream
	traces []traceRequest
}

type traceRequest struct {
	sample   *sample
	protocol string
	strategy string
	corrupt  nodeset.Set
	// schedule and schedSeed identify the async schedule of a violating
	// schedule run; schedule == "" re-traces under lockstep.
	schedule  string
	schedSeed int64
	// maPolicy, maBudget and maSeed rebuild the message adversary of a
	// violating suppression run; maPolicy == "" re-traces without one.
	maPolicy string
	maBudget int
	maSeed   int64
}

// Sweep runs the fuzzer and aggregates its report. The per-trial work is
// fanned across eval.ParallelMap; records and traces are emitted serially
// in trial order after the pool drains, so output is deterministic.
func Sweep(cfg Config) (*Report, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 1
	}
	results := eval.ParallelMap(cfg.Trials, cfg.Workers, func(trial int) trialResult {
		rng := rand.New(rand.NewSource(eval.TrialSeed(cfg.Seed, 0, trial)))
		return runTrial(cfg, trial, rng)
	})

	rep := &Report{Trials: cfg.Trials}
	for _, tr := range results {
		if tr.err != nil {
			return nil, tr.err
		}
		rep.Runs += tr.runs
		rep.Skipped += tr.skipped
		rep.Violations = append(rep.Violations, tr.violations...)
		rep.Mismatches = append(rep.Mismatches, tr.mismatches...)
		rep.ControlRuns += tr.ctrlRuns
		rep.ControlViolations += tr.ctrlViol
	}

	if cfg.Out != nil {
		enc := json.NewEncoder(cfg.Out)
		for _, tr := range results {
			for _, rec := range tr.records {
				if err := enc.Encode(rec); err != nil {
					return nil, fmt.Errorf("attack: writing records: %w", err)
				}
			}
			for _, req := range tr.traces {
				if err := traceRun(cfg, req); err != nil {
					return nil, err
				}
			}
		}
	}

	if err := runCanaryBattery(cfg, rep); err != nil {
		return nil, err
	}
	if err := runPrivacyBattery(cfg, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// runTrial executes the full protocol × strategy × engine matrix on one
// sampled fixture.
func runTrial(cfg Config, trial int, rng *rand.Rand) trialResult {
	var tr trialResult
	smp, err := drawSample(rng)
	if err != nil {
		tr.err = err
		return tr
	}

	for _, protoName := range cfg.protocols() {
		proto, ok := protocol.Get(protoName)
		if !ok {
			tr.err = fmt.Errorf("attack: unknown protocol %q", protoName)
			return tr
		}
		in := smp.forProtocol(proto)
		// Pre-flight: a protocol may reject the sampled fixture outright as
		// a capability mismatch (SMT when the corruptible ground covers
		// every D–R path). That is a property of the pairing, not an error
		// of the sweep — skip the cell instead of aborting the trial; such
		// protocols get their dedicated coverage from their own batteries.
		if _, err := proto.Assemble(in, xD, protocol.Options{}); err != nil && protocol.IsCapsError(err) {
			tr.skipped++
			continue
		}
		for _, stratName := range cfg.strategies() {
			strat, ok := byzantine.Get(stratName)
			if !ok {
				tr.err = byzantine.UnknownError(stratName)
				return tr
			}

			// Admissible corruption: assert safety and engine agreement.
			var runs []*network.Result
			for _, engine := range cfg.engines() {
				res, err := runOnce(cfg, proto, strat, in, smp.corrupt, engine)
				if err != nil {
					tr.err = fmt.Errorf("attack: trial %d %s %s/%s: %w",
						trial, smp.desc, protoName, stratName, err)
					return tr
				}
				tr.runs++
				runs = append(runs, res)
				viols := unsafeDecisions(in, smp.corrupt, res)
				for _, v := range viols {
					tr.violations = append(tr.violations, Violation{
						Trial: trial, Instance: smp.desc,
						Protocol: protoName, Strategy: stratName,
						Engine: engine.Name(), Corrupt: members(smp.corrupt),
						Node: v.node, Got: v.got,
					})
				}
				if len(viols) > 0 {
					tr.traces = append(tr.traces, traceRequest{
						sample: smp, protocol: protoName, strategy: stratName,
						corrupt: smp.corrupt,
					})
				}
				tr.records = append(tr.records, record(trial, smp.desc, protoName, stratName,
					engine.Name(), smp.corrupt, true, in, res, len(viols) == 0))
			}
			if d := disagreement(cfg.engines(), runs); d != "" {
				tr.mismatches = append(tr.mismatches, Mismatch{
					Trial: trial, Instance: smp.desc,
					Protocol: protoName, Strategy: stratName, Detail: d,
				})
			}

			// Schedule runs: the async engine under every configured
			// delivery schedule, seeded per (trial, schedule) so any
			// violation replays from (Seed, trial) alone.
			for schedIdx, schedName := range cfg.Schedules {
				schedSeed := eval.TrialSeed(cfg.Seed, 1000+schedIdx, trial)
				sched, err := network.NewScheduler(schedName, schedSeed)
				if err != nil {
					tr.err = fmt.Errorf("attack: trial %d: %w", trial, err)
					return tr
				}
				res, err := runSchedule(cfg, proto, strat, in, smp.corrupt, sched)
				if err != nil {
					tr.err = fmt.Errorf("attack: trial %d %s %s/%s sched %s: %w",
						trial, smp.desc, protoName, stratName, schedName, err)
					return tr
				}
				tr.runs++
				engName := "async/" + schedName
				viols := unsafeDecisions(in, smp.corrupt, res)
				for _, v := range viols {
					tr.violations = append(tr.violations, Violation{
						Trial: trial, Instance: smp.desc,
						Protocol: protoName, Strategy: stratName,
						Engine: engName, Corrupt: members(smp.corrupt),
						Node: v.node, Got: v.got,
					})
				}
				if len(viols) > 0 {
					tr.traces = append(tr.traces, traceRequest{
						sample: smp, protocol: protoName, strategy: stratName,
						corrupt: smp.corrupt, schedule: schedName, schedSeed: schedSeed,
					})
				}
				tr.records = append(tr.records, record(trial, smp.desc, protoName,
					stratName, engName, smp.corrupt, true, in, res, len(viols) == 0))
				// The zero-fault schedule must be indistinguishable from the
				// synchronous engines: same transcript, same decisions.
				if schedName == network.SchedSync && len(runs) > 0 {
					if d := disagreement([]network.Engine{cfg.engines()[0], network.Async},
						[]*network.Result{runs[0], res}); d != "" {
						tr.mismatches = append(tr.mismatches, Mismatch{
							Trial: trial, Instance: smp.desc,
							Protocol: protoName, Strategy: stratName,
							Detail: "sync schedule: " + d,
						})
					}
				}
			}

			// Message-adversary runs: for each suppression budget, every
			// stock policy under lockstep plus every configured schedule
			// with the seeded random policy layered on top. Safety-only
			// oracle — dropped copies can starve liveness but must never
			// produce a wrong decision.
			for bIdx, budget := range cfg.MABudgets {
				for pIdx, maName := range network.MessageAdversaryNames() {
					maSeed := eval.TrialSeed(cfg.Seed, 2000+bIdx*maStreams+pIdx, trial)
					madv, err := network.NewMessageAdversary(maName, budget, maSeed)
					if err != nil {
						tr.err = fmt.Errorf("attack: trial %d: %w", trial, err)
						return tr
					}
					res, err := runSuppressed(cfg, proto, strat, in, smp.corrupt, madv, budget, nil)
					if err != nil {
						tr.err = fmt.Errorf("attack: trial %d %s %s/%s ma %s(d=%d): %w",
							trial, smp.desc, protoName, stratName, maName, budget, err)
						return tr
					}
					tr.runs++
					engName := fmt.Sprintf("lockstep+ma/%s(d=%d)", maName, budget)
					viols := unsafeDecisions(in, smp.corrupt, res)
					for _, v := range viols {
						tr.violations = append(tr.violations, Violation{
							Trial: trial, Instance: smp.desc,
							Protocol: protoName, Strategy: stratName,
							Engine: engName, Corrupt: members(smp.corrupt),
							Node: v.node, Got: v.got,
						})
					}
					if len(viols) > 0 {
						tr.traces = append(tr.traces, traceRequest{
							sample: smp, protocol: protoName, strategy: stratName,
							corrupt:  smp.corrupt,
							maPolicy: maName, maBudget: budget, maSeed: maSeed,
						})
					}
					rec := record(trial, smp.desc, protoName, stratName,
						engName, smp.corrupt, true, in, res, len(viols) == 0)
					rec.MAPolicy, rec.MABudget, rec.Suppressed = maName, budget, madv.Suppressed()
					tr.records = append(tr.records, rec)
				}
				for schedIdx, schedName := range cfg.Schedules {
					schedSeed := eval.TrialSeed(cfg.Seed, 3000+bIdx*maStreams+schedIdx, trial)
					sched, err := network.NewScheduler(schedName, schedSeed)
					if err != nil {
						tr.err = fmt.Errorf("attack: trial %d: %w", trial, err)
						return tr
					}
					maSeed := eval.TrialSeed(cfg.Seed, 4000+bIdx*maStreams+schedIdx, trial)
					madv := network.MustMessageAdversary(network.MARandom, budget, maSeed)
					res, err := runSuppressed(cfg, proto, strat, in, smp.corrupt, madv, budget, sched)
					if err != nil {
						tr.err = fmt.Errorf("attack: trial %d %s %s/%s sched %s + ma random(d=%d): %w",
							trial, smp.desc, protoName, stratName, schedName, budget, err)
						return tr
					}
					tr.runs++
					engName := fmt.Sprintf("async/%s+ma/random(d=%d)", schedName, budget)
					viols := unsafeDecisions(in, smp.corrupt, res)
					for _, v := range viols {
						tr.violations = append(tr.violations, Violation{
							Trial: trial, Instance: smp.desc,
							Protocol: protoName, Strategy: stratName,
							Engine: engName, Corrupt: members(smp.corrupt),
							Node: v.node, Got: v.got,
						})
					}
					if len(viols) > 0 {
						tr.traces = append(tr.traces, traceRequest{
							sample: smp, protocol: protoName, strategy: stratName,
							corrupt: smp.corrupt, schedule: schedName, schedSeed: schedSeed,
							maPolicy: network.MARandom, maBudget: budget, maSeed: maSeed,
						})
					}
					rec := record(trial, smp.desc, protoName, stratName,
						engName, smp.corrupt, true, in, res, len(viols) == 0)
					rec.MAPolicy, rec.MABudget, rec.Suppressed = network.MARandom, budget, madv.Suppressed()
					tr.records = append(tr.records, rec)
				}
			}

			// Control: minimal non-admissible superset, lockstep only.
			// Outcomes are recorded, not asserted.
			if smp.control.Len() > 0 {
				res, err := runOnce(cfg, proto, strat, in, smp.control, network.Lockstep)
				if err != nil {
					tr.err = fmt.Errorf("attack: trial %d control %s %s/%s: %w",
						trial, smp.desc, protoName, stratName, err)
					return tr
				}
				tr.ctrlRuns++
				unsafe := len(unsafeDecisions(in, smp.control, res)) > 0
				if unsafe {
					tr.ctrlViol++
				}
				tr.records = append(tr.records, record(trial, smp.desc, protoName, stratName,
					network.Lockstep.Name(), smp.control, false, in, res, !unsafe))
			}
		}
	}
	return tr
}

// runOnce builds a fresh corruption overlay (strategy processes are
// stateful and single-use) and executes one run.
func runOnce(cfg Config, proto protocol.Protocol, strat byzantine.Strategy,
	in *instance.Instance, corrupt nodeset.Set, engine network.Engine) (*network.Result, error) {
	return protocol.Run(proto, in, xD, protocol.Options{
		Engine:           engine,
		MaxRounds:        cfg.maxRounds(),
		RecordTranscript: true,
		Corrupt:          strat.Build(in, corrupt, ForgedValue),
	})
}

// maStreams spaces the per-budget seed streams of the message-adversary
// runs; it only needs to exceed the number of stock policies and schedules.
const maStreams = 16

// runSuppressed is runOnce with a (single-use) message adversary attached:
// lockstep when sched is nil, async under sched otherwise. The budget is
// passed through Options so budget-aware protocols (mbrb) provision their
// quorums for it.
func runSuppressed(cfg Config, proto protocol.Protocol, strat byzantine.Strategy,
	in *instance.Instance, corrupt nodeset.Set, madv network.MessageAdversary,
	budget int, sched network.Scheduler) (*network.Result, error) {
	opts := protocol.Options{
		Engine:           network.Lockstep,
		MaxRounds:        cfg.maxRounds(),
		RecordTranscript: true,
		Corrupt:          strat.Build(in, corrupt, ForgedValue),
		MsgAdversary:     madv,
		MABudget:         budget,
	}
	if sched != nil {
		opts.Engine = network.Async
		opts.Scheduler = sched
	}
	return protocol.Run(proto, in, xD, opts)
}

// runSchedule is runOnce under the async engine with the given (single-use)
// scheduler.
func runSchedule(cfg Config, proto protocol.Protocol, strat byzantine.Strategy,
	in *instance.Instance, corrupt nodeset.Set, sched network.Scheduler) (*network.Result, error) {
	return protocol.Run(proto, in, xD, protocol.Options{
		Engine:           network.Async,
		Scheduler:        sched,
		MaxRounds:        cfg.maxRounds(),
		RecordTranscript: true,
		Corrupt:          strat.Build(in, corrupt, ForgedValue),
	})
}

type unsafeDecision struct {
	node int
	got  network.Value
}

// unsafeDecisions applies the Theorem-4 safety oracle: every decision by a
// node outside the corruption set must equal x_D. Deciding ⊥ (not at all)
// is always acceptable — safety, not liveness, is on trial.
func unsafeDecisions(in *instance.Instance, corrupt nodeset.Set, res *network.Result) []unsafeDecision {
	var out []unsafeDecision
	for node, got := range res.Decisions {
		if corrupt.Contains(node) || got == xD {
			continue
		}
		out = append(out, unsafeDecision{node: node, got: got})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].node < out[j].node })
	return out
}

// disagreement compares the recorded transcripts and decisions of the
// per-engine runs of one deterministic configuration.
func disagreement(engines []network.Engine, runs []*network.Result) string {
	if len(runs) < 2 {
		return ""
	}
	ref := runs[0]
	for i, res := range runs[1:] {
		if res.Transcript.Key() != ref.Transcript.Key() {
			return fmt.Sprintf("transcript of %s differs from %s", engines[i+1], engines[0])
		}
		if !decisionsEqual(ref.Decisions, res.Decisions) {
			return fmt.Sprintf("decisions of %s differ from %s: %v vs %v",
				engines[i+1], engines[0], res.Decisions, ref.Decisions)
		}
	}
	return ""
}

func decisionsEqual(a, b map[int]network.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

func record(trial int, desc, protoName, stratName, engine string,
	corrupt nodeset.Set, inZ bool, in *instance.Instance, res *network.Result, safe bool) runRecord {
	val, decided := res.DecisionOf(in.Receiver)
	return runRecord{
		Type: "run", Trial: trial, Instance: desc,
		Protocol: protoName, Strategy: stratName, Engine: engine,
		Corrupt: members(corrupt), InZ: inZ,
		Rounds: res.Rounds, Messages: res.Metrics.MessagesSent,
		Decided: decided, Value: val, Safe: safe,
	}
}

func members(s nodeset.Set) []int {
	out := make([]int, 0, s.Len())
	s.ForEach(func(v int) bool {
		out = append(out, v)
		return true
	})
	return out
}

// traceRun re-executes a violating run with a message-level JSONL tracer
// attached, so the attack trace lands in the output stream right after the
// violating run's summary record. Schedule violations replay under the same
// (schedule, seed) pair, reproducing the violating delivery order exactly.
func traceRun(cfg Config, req traceRequest) error {
	proto := protocol.MustGet(req.protocol)
	in := req.sample.forProtocol(proto)
	strat := byzantine.MustGet(req.strategy)
	tracer := network.NewJSONLTracer(cfg.Out)
	opts := protocol.Options{
		Engine:    network.Lockstep,
		MaxRounds: cfg.maxRounds(),
		Corrupt:   strat.Build(in, req.corrupt, ForgedValue),
		Tracers:   []network.Tracer{tracer},
	}
	if req.schedule != "" {
		sched, err := network.NewScheduler(req.schedule, req.schedSeed)
		if err != nil {
			return err
		}
		opts.Engine = network.Async
		opts.Scheduler = sched
	}
	if req.maPolicy != "" {
		madv, err := network.NewMessageAdversary(req.maPolicy, req.maBudget, req.maSeed)
		if err != nil {
			return err
		}
		opts.MsgAdversary = madv
		opts.MABudget = req.maBudget
	}
	_, err := protocol.Run(proto, in, xD, opts)
	if err != nil {
		return fmt.Errorf("attack: tracing %s/%s: %w", req.protocol, req.strategy, err)
	}
	return tracer.Err()
}

// ParseEngines parses a comma-separated engine list ("lockstep,async"). A bare "async" engine runs under the
// zero-fault schedule; use Config.Schedules for adversarial schedules.
func ParseEngines(s string) ([]network.Engine, error) {
	if s == "" {
		return nil, nil
	}
	var out []network.Engine
	for _, name := range strings.Split(s, ",") {
		e, err := network.ParseEngine(strings.TrimSpace(name))
		if err != nil {
			return nil, fmt.Errorf("attack: %w", err)
		}
		out = append(out, e)
	}
	return out, nil
}

// ParseBudgets parses a comma-separated list of message-adversary
// suppression budgets for Config.MABudgets.
func ParseBudgets(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, field := range strings.Split(s, ",") {
		var d int
		if _, err := fmt.Sscanf(strings.TrimSpace(field), "%d", &d); err != nil {
			return nil, fmt.Errorf("attack: bad suppression budget %q", field)
		}
		if d < 0 {
			return nil, fmt.Errorf("attack: negative suppression budget %d", d)
		}
		out = append(out, d)
	}
	return out, nil
}

// ParseSchedules parses a comma-separated schedule list for
// Config.Schedules; "all" expands to every stock schedule.
func ParseSchedules(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	if s == "all" {
		return network.SchedulerNames(), nil
	}
	var out []string
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if _, err := network.NewScheduler(name, 0); err != nil {
			return nil, fmt.Errorf("attack: %w", err)
		}
		out = append(out, name)
	}
	return out, nil
}
