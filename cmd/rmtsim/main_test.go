package main

import (
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"

	"rmt"
	"rmt/internal/wire"
)

// TestMain mirrors main(): wire-engine coordinators re-exec this test binary
// as node children, which must divert into the node loop before the testing
// framework parses flags.
func TestMain(m *testing.M) {
	if wire.IsNode() {
		os.Exit(wire.NodeMain())
	}
	os.Exit(m.Run())
}

const tripleGraph = "0-1 0-2 0-3 1-4 2-4 3-4"

// k5Graph is the complete graph on five nodes — mbrb counts processes, not
// paths, and rejects sparse networks.
const k5Graph = "0-1 0-2 0-3 0-4 1-2 1-3 1-4 2-3 2-4 3-4"

// fixtureFor picks a (graph, structure) pair the protocol accepts: the
// triple-path relay graph for the path-based RMT protocols, K5 for mbrb.
// smt needs honest share paths, so its structure leaves relay 3 out of the
// adversary's reach while keeping the suite's -corrupt 2 admissible.
func fixtureFor(proto string) (graph, structure string) {
	switch proto {
	case rmt.ProtocolMBRB:
		return k5Graph, "1;2;3"
	case rmt.ProtocolSMT:
		return tripleGraph, "1;2"
	}
	return tripleGraph, "1;2;3"
}

func TestRunHonest(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-graph", tripleGraph, "-structure", "1;2;3",
		"-receiver", "4", "-protocol", "pka", "-value", "hello",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"hello" — CORRECT`) {
		t.Fatalf("output:\n%s", sb.String())
	}
}

func TestRunEveryProtocolAndAttack(t *testing.T) {
	for _, proto := range rmt.Protocols() {
		for _, attack := range rmt.AttackStrategies() {
			graph, structure := fixtureFor(proto)
			var sb strings.Builder
			err := run([]string{
				"-graph", graph, "-structure", structure,
				"-receiver", "4", "-protocol", proto, "-value", "v",
				"-knowledge", "full",
				"-corrupt", "2", "-attack", attack, "-rounds",
			}, &sb)
			if err != nil {
				t.Fatalf("%s/%s: %v", proto, attack, err)
			}
			if strings.Contains(sb.String(), "WRONG") {
				t.Fatalf("%s/%s: safety violation:\n%s", proto, attack, sb.String())
			}
		}
	}
}

func TestRunSMTListening(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-graph", tripleGraph, "-structure", "1", "-receiver", "4",
		"-protocol", "smt", "-value", "launch code", "-listen", "2",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"launch code" — CORRECT`) {
		t.Fatalf("output:\n%s", sb.String())
	}
}

// TestRunCapsRejectionIsUsageError: a protocol refusing an instance or
// listening pairing outright is a configuration mistake, reported as a
// one-line usage error (exit 2) — not a run failure and certainly not a
// panic. The smt pairing below has every relay corruptible-or-listenable;
// the mbrb instance is an incomplete network.
func TestRunCapsRejectionIsUsageError(t *testing.T) {
	cases := [][]string{
		{"-graph", tripleGraph, "-structure", "1", "-receiver", "4",
			"-protocol", "smt", "-listen", "2,3"},
		{"-graph", tripleGraph, "-structure", "1", "-receiver", "4",
			"-protocol", "mbrb"},
	}
	for i, args := range cases {
		var sb strings.Builder
		err := run(args, &sb)
		if err == nil {
			t.Fatalf("case %d: infeasible pairing accepted", i)
		}
		if !rmt.IsCapsError(err) {
			t.Fatalf("case %d: not a caps error: %v", i, err)
		}
		if errors.As(err, &runError{}) {
			t.Fatalf("case %d: caps rejection classified as run failure (exit 1): %v", i, err)
		}
		if strings.Contains(err.Error(), "\n") {
			t.Fatalf("case %d: usage error is not one line: %q", i, err)
		}
	}
}

func TestRunRejectsInadmissibleCorruption(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-graph", tripleGraph, "-structure", "1", "-receiver", "4",
		"-corrupt", "2,3",
	}, &sb)
	if err == nil || !strings.Contains(err.Error(), "not admissible") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"-graph", tripleGraph, "-receiver", "4", "-protocol", "nope"},
		{"-graph", tripleGraph, "-receiver", "4", "-engine", "nope"},
		{"-graph", tripleGraph, "-receiver", "4", "-corrupt", "1", "-attack", "nope"},
		{"-graph", tripleGraph, "-receiver", "4", "-listen", "not-a-structure"},
	}
	for i, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("case %d: no error", i)
		}
	}
}

func TestRunTrace(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-graph", "0-1 1-2", "-receiver", "2", "-protocol", "zcpa",
		"-value", "hi", "-trace",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "round 1") || !strings.Contains(out, "0 → 1  v:hi") {
		t.Fatalf("trace missing:\n%s", out)
	}
}

func TestRunTracePPA(t *testing.T) {
	// The unified runtime records transcripts for every protocol — PPA
	// included, which the pre-registry CLI had to reject.
	var sb strings.Builder
	err := run([]string{
		"-graph", "0-1 1-2", "-receiver", "2", "-protocol", "ppa",
		"-knowledge", "full", "-value", "hi", "-trace",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "round 1") {
		t.Fatalf("trace missing:\n%s", sb.String())
	}
}

func TestRunJSONL(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-graph", "0-1 1-2", "-receiver", "2", "-protocol", "zcpa",
		"-value", "hi", "-jsonl", "-",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"ev":"run"`, `"ev":"send"`, `"ev":"decide"`, `"ev":"run-end"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("jsonl output missing %s:\n%s", want, out)
		}
	}
}

func TestRunAsyncEngine(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-graph", tripleGraph, "-structure", "1;2;3", "-receiver", "4",
		"-protocol", "zcpa", "-value", "v",
		"-engine", "async", "-sched", "random", "-seed", "7",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"engine=async sched=random seed=7", "CORRECT", "delayed="} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAsyncDefaultsToSyncSchedule(t *testing.T) {
	// -engine async with no -sched runs the zero-fault schedule: nothing is
	// delayed and the run matches the synchronous engines.
	var sb strings.Builder
	err := run([]string{
		"-graph", tripleGraph, "-structure", "1;2;3", "-receiver", "4",
		"-protocol", "zcpa", "-value", "v", "-engine", "async",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "sched=sync") || !strings.Contains(out, "delayed=0") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunSchedRequiresAsyncEngine(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-graph", tripleGraph, "-structure", "", "-receiver", "4",
		"-sched", "random",
	}, &sb)
	if err == nil || !strings.Contains(err.Error(), "requires -engine async") {
		t.Fatalf("err = %v", err)
	}
	if err := run([]string{
		"-graph", tripleGraph, "-structure", "", "-receiver", "4",
		"-engine", "async", "-sched", "bogus",
	}, &sb); err == nil {
		t.Fatal("unknown schedule accepted")
	}
}

func TestRunAsyncSeededJSONLIsReproducible(t *testing.T) {
	args := []string{
		"-graph", tripleGraph, "-structure", "1;2;3", "-receiver", "4",
		"-protocol", "pka", "-value", "v",
		"-engine", "async", "-sched", "partition", "-seed", "3",
		"-jsonl", "-",
	}
	var a, b strings.Builder
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("same (sched, seed), different output")
	}
	if !strings.Contains(a.String(), `"engine":"async"`) {
		t.Fatalf("jsonl missing async run header:\n%.300s", a.String())
	}
}

// TestRunWireGoldenAgreement is the CLI-level acceptance check for the wire
// engine: for every registry protocol, -engine wire (real TCP, one OS
// process per player) must emit the same JSON event stream as -engine
// lockstep, up to the engine name in the run header.
func TestRunWireGoldenAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	engineField := regexp.MustCompile(`"engine":"[a-z]+"`)
	for _, proto := range rmt.Protocols() {
		t.Run(proto, func(t *testing.T) {
			graph, structure := fixtureFor(proto)
			outputs := map[string]string{}
			for _, eng := range []string{"lockstep", "wire"} {
				var sb strings.Builder
				err := run([]string{
					"-graph", graph, "-structure", structure,
					"-receiver", "4", "-protocol", proto, "-value", "v",
					"-knowledge", "full", "-corrupt", "2",
					"-engine", eng, "-jsonl", "-",
				}, &sb)
				if err != nil {
					t.Fatalf("%s: %v", eng, err)
				}
				normalized := engineField.ReplaceAllString(sb.String(), `"engine":"*"`)
				outputs[eng] = strings.ReplaceAll(normalized, "engine="+eng, "engine=*")
			}
			if outputs["lockstep"] != outputs["wire"] {
				t.Errorf("wire run diverges from lockstep:\nlockstep:\n%s\nwire:\n%s",
					outputs["lockstep"], outputs["wire"])
			}
		})
	}
}

func TestRunMessageAdversary(t *testing.T) {
	// Every stock policy at d=1 on the K6 MBRB fixture: one Byzantine
	// player plus one suppressed copy per broadcast is exactly what
	// n=6 > 3t+2d provisions for, so the receiver still decides.
	const k6 = "0-1 0-2 0-3 0-4 0-5 1-2 1-3 1-4 1-5 2-3 2-4 2-5 3-4 3-5 4-5"
	for _, policy := range rmt.MessageAdversaryNames() {
		var sb strings.Builder
		err := run([]string{
			"-graph", k6, "-structure", "1;2;3;4", "-receiver", "5",
			"-protocol", "mbrb", "-value", "v", "-corrupt", "1",
			"-ma", policy, "-mabudget", "1", "-maseed", "7",
		}, &sb)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		out := sb.String()
		for _, want := range []string{"ma=" + policy + "(d=1)", "suppressed="} {
			if !strings.Contains(out, want) {
				t.Fatalf("%s: output missing %q:\n%s", policy, want, out)
			}
		}
		// Safety holds under every policy; liveness at the receiver is only
		// guaranteed for the deterministic targeted policy — the seeded ones
		// may pick the receiver as one of the d starved players.
		if strings.Contains(out, "WRONG") {
			t.Fatalf("%s: safety violation:\n%s", policy, out)
		}
		if policy == "targeted" && !strings.Contains(out, `"v" — CORRECT`) {
			t.Fatalf("targeted: receiver did not decide:\n%s", out)
		}
	}
}

func TestRunMessageAdversaryErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-graph", tripleGraph, "-structure", "", "-receiver", "4", "-ma", "bogus"},
		{"-graph", tripleGraph, "-structure", "", "-receiver", "4", "-ma", "random", "-mabudget", "-1"},
		{"-graph", tripleGraph, "-structure", "", "-receiver", "4", "-mabudget", "2"},
	} {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("%v: no error", args)
		}
	}
}

func TestRunSimFromFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/in.rmt"
	spec := "graph: " + tripleGraph + "\nstructure: 1;2;3\nreceiver: 4\n"
	if err := os.WriteFile(path, []byte(spec), 0o600); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-file", path, "-protocol", "zcpa", "-value", "v"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "CORRECT") {
		t.Fatalf("output:\n%s", sb.String())
	}
}
