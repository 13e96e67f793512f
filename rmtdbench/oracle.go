package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"

	"rmt/internal/cliutil"
	"rmt/internal/core"
	"rmt/internal/eval"
	"rmt/internal/feasibility"
	"rmt/internal/gen"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
	"rmt/internal/server"
	"rmt/internal/zcpa"
)

// The output oracles. Each workload's expected reply bodies are computed in
// set-up and checked here against the library's own predicates, so that
// the timed phase can count any reply that differs from them by a single
// byte as a failed op.

// buildRequest builds the instance an InstanceRequest names.
func buildRequest(q server.InstanceRequest) (*instance.Instance, gen.Knowledge, error) {
	p, err := parseInstance(q)
	if err != nil {
		return nil, 0, err
	}
	in, err := gen.Build(p.g, p.z, p.level, q.Dealer, q.Receiver)
	return in, p.level, err
}

// checkVerdicts checks one PKA/ZCPA verdict pair against core.Solvable and
// zcpa.Solvable, and every witness against its verifier.
func checkVerdicts(in *instance.Instance, level gen.Knowledge, pka server.Verdict, z *server.Verdict) error {
	if want := core.Solvable(in); pka.Solvable != want {
		return fmt.Errorf("pka solvable = %v, core.Solvable = %v", pka.Solvable, want)
	}
	if pka.Solvable != (pka.Witness == nil) {
		return errors.New("pka: witness present iff unsolvable violated")
	}
	if w := pka.Witness; w != nil {
		cut := core.RMTCut{C1: nodeset.Of(w.C1...), C2: nodeset.Of(w.C2...), B: nodeset.Of(w.B...)}
		if err := core.VerifyRMTCut(in, cut); err != nil {
			return fmt.Errorf("pka witness: %w", err)
		}
	}
	if (level == gen.AdHoc) != (z != nil) {
		return fmt.Errorf("zcpa verdict present = %v at knowledge %v", z != nil, level)
	}
	if z == nil {
		return nil
	}
	if want := zcpa.Solvable(in); z.Solvable != want {
		return fmt.Errorf("zcpa solvable = %v, zcpa.Solvable = %v", z.Solvable, want)
	}
	if z.Solvable != (z.Witness == nil) {
		return errors.New("zcpa: witness present iff unsolvable violated")
	}
	if w := z.Witness; w != nil {
		cut := zcpa.ZppCut{C1: nodeset.Of(w.C1...), C2: nodeset.Of(w.C2...), B: nodeset.Of(w.B...)}
		if err := zcpa.VerifyZppCut(in, cut); err != nil {
			return fmt.Errorf("zcpa witness: %w", err)
		}
	}
	return nil
}

// checkFeasibility checks a /v1/feasibility reply: the four verdicts agree
// with core.Solvable, zcpa.Solvable, feasibility.SMTFeasible and
// feasibility.MBRBFeasible, and the witnesses verify.
func checkFeasibility(reqBody, reply []byte) error {
	var req server.FeasibilityRequest
	if err := decodeStrict(reqBody, &req); err != nil {
		return err
	}
	in, level, err := buildRequest(req.InstanceRequest)
	if err != nil {
		return err
	}
	listen, err := cliutil.ParseStructure(req.Listen)
	if err != nil {
		return err
	}
	var resp server.FeasibilityResponse
	if err := decodeStrict(reply, &resp); err != nil {
		return fmt.Errorf("reply: %w", err)
	}
	if resp.Key != in.CanonicalKey() || resp.Knowledge != level.String() {
		return fmt.Errorf("reply names key %.12s/%s, want %.12s/%s", resp.Key, resp.Knowledge, in.CanonicalKey(), level)
	}
	if err := checkVerdicts(in, level, resp.PKA, resp.ZCPA); err != nil {
		return err
	}
	if resp.SMT == nil {
		return errors.New("smt verdict missing")
	}
	if want := feasibility.SMTFeasible(in, listen); resp.SMT.Feasible != want {
		return fmt.Errorf("smt feasible = %v, SMTFeasible = %v", resp.SMT.Feasible, want)
	}
	mv, err := feasibility.MBRBVerdictFor(in, req.MABudget)
	if (err == nil) != (resp.MBRB != nil) {
		return fmt.Errorf("mbrb verdict present = %v, complete graph = %v", resp.MBRB != nil, err == nil)
	}
	if m := resp.MBRB; m != nil {
		if m.N != mv.N || m.T != mv.T || m.D != req.MABudget {
			return fmt.Errorf("mbrb (n,t,d) = (%d,%d,%d), want (%d,%d,%d)", m.N, m.T, m.D, mv.N, mv.T, req.MABudget)
		}
		if want := feasibility.MBRBFeasible(m.N, m.T, m.D); m.Feasible != want {
			return fmt.Errorf("mbrb feasible = %v, MBRBFeasible = %v", m.Feasible, want)
		}
	}
	return nil
}

// checkRun checks a /v1/run reply: it echoes the request, every trial that
// decided decided the dealer's value, every run reconciles its message
// counts, and rows that must decide did.
func checkRun(reqBody, reply []byte, mustDecide bool) error {
	var req server.RunRequest
	if err := decodeStrict(reqBody, &req); err != nil {
		return err
	}
	normalizeRun(&req)
	in, _, err := buildRequest(req.InstanceRequest)
	if err != nil {
		return err
	}
	var resp server.RunResponse
	if err := decodeStrict(reply, &resp); err != nil {
		return fmt.Errorf("reply: %w", err)
	}
	if resp.Key != in.CanonicalKey() || resp.Protocol != req.Protocol || resp.Engine != req.Engine ||
		resp.Schedule != req.Schedule || resp.Seed != req.Seed || len(resp.Trials) != req.Trials {
		return fmt.Errorf("reply does not echo the request (%s/%s/%s seed %d, %d trials)",
			resp.Protocol, resp.Engine, resp.Schedule, resp.Seed, len(resp.Trials))
	}
	for i, tr := range resp.Trials {
		if tr.Seed != eval.TrialSeed(req.Seed, 0, i) {
			return fmt.Errorf("trial %d: seed %d", i, tr.Seed)
		}
		if tr.Decided && (!tr.Correct || tr.Decision != req.Value) {
			return fmt.Errorf("trial %d decided %q, dealer sent %q (safety)", i, tr.Decision, req.Value)
		}
		if !tr.Decided && tr.Correct {
			return fmt.Errorf("trial %d: correct without a decision", i)
		}
		if mustDecide && !tr.Decided {
			return fmt.Errorf("trial %d did not decide on a must-decide topology", i)
		}
		if err := tr.Metrics.Reconcile(); err != nil {
			return fmt.Errorf("trial %d: %w", i, err)
		}
		if req.Transcript != (len(tr.Transcript) > 0) {
			return fmt.Errorf("trial %d: transcript present = %v", i, len(tr.Transcript) > 0)
		}
	}
	return nil
}

// watchSub is one watch subscription: a base instance and its delta chain.
type watchSub struct {
	base   server.InstanceRequest
	deltas []instance.Delta
}

// checkWatch checks a /v1/watch reply: the events are exactly rev 0 plus
// the revisions at which a fresh search per revision finds a verdict flip,
// each with the fresh verdicts, verified witnesses and the revision's chain
// key.
func checkWatch(sub watchSub, reply []byte) error {
	in, level, err := buildRequest(sub.base)
	if err != nil {
		return err
	}
	keys := append([]string{in.CanonicalKey()}, instance.ChainKeys(in, sub.deltas)...)
	sc := bufio.NewScanner(bytes.NewReader(reply))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var prev *server.WatchEvent
	for rev := 0; rev < len(keys); rev++ {
		if rev > 0 {
			if in, err = gen.ApplyDelta(in, sub.deltas[rev-1], level); err != nil {
				return err
			}
		}
		fresh := &server.WatchEvent{Rev: rev, Key: keys[rev], Knowledge: level.String()}
		fresh.PKA.Solvable = core.Solvable(in)
		if level == gen.AdHoc {
			fresh.ZCPA = &server.Verdict{Solvable: zcpa.Solvable(in)}
		}
		if prev != nil && !verdictChanged(prev, fresh) {
			continue
		}
		prev = fresh
		line := nextLine(sc)
		if line == nil {
			return fmt.Errorf("no event for rev %d, where the verdict flips", rev)
		}
		var ev server.WatchEvent
		if err := decodeStrict(line, &ev); err != nil {
			return fmt.Errorf("event: %w", err)
		}
		if ev.Rev != rev || ev.Key != keys[rev] || ev.Knowledge != level.String() {
			return fmt.Errorf("event names rev %d key %.12s, want rev %d key %.12s", ev.Rev, ev.Key, rev, keys[rev])
		}
		if err := checkVerdicts(in, level, ev.PKA, ev.ZCPA); err != nil {
			return fmt.Errorf("rev %d: %w", rev, err)
		}
	}
	if line := nextLine(sc); line != nil {
		return fmt.Errorf("extra event %s", line)
	}
	return nil
}
