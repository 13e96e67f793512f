package rmt

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// Golden-transcript regression tests: each case pins the full JSONL event
// stream (every send, drop, delivery, decision, halt, and round boundary)
// of a canonical run from the examples. The protocols and both engines are
// deterministic, so any diff against testdata/golden/ is a behavioral
// change that must be reviewed — and every engine must reproduce the
// synchronous stream byte-for-byte (modulo the engine name in the run
// header, which is normalized away).
//
// Regenerate after an intentional change with:
//
//	go test . -run TestGoldenTranscripts -update

var updateGolden = flag.Bool("update", false, "rewrite the golden transcripts in testdata/golden")

// engineField strips the one engine-dependent byte sequence from the
// stream: the run header's engine name.
var engineField = regexp.MustCompile(`"engine":"[a-z]+"`)

func normalizeEngine(b []byte) []byte {
	return engineField.ReplaceAll(b, []byte(`"engine":"*"`))
}

type goldenCase struct {
	name     string
	protocol string
	xD       Value
	// build returns the instance and the corruption overlay.
	build func(t *testing.T) (*Instance, map[int]Process)
	// opts, when non-nil, returns additional run options for the case.
	// It is called once per run because some options are single-use
	// (message adversaries, schedulers).
	opts func() RunOptions
}

// quickstartInstance is the examples/quickstart fixture: three disjoint
// relay paths 0→{1,2,3}→4 under singleton corruption.
func quickstartInstance(t *testing.T) *Instance {
	t.Helper()
	g, err := ParseEdgeList("0-1 0-2 0-3 1-4 2-4 3-4")
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewAdHocInstance(g, StructureOf([]int{1}, []int{2}, []int{3}), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// layeredInstance is the examples/adhoc solvable fixture: two complete
// relay layers under a global threshold-1 adversary.
func layeredInstance(t *testing.T) *Instance {
	t.Helper()
	g, err := ParseEdgeList("0-1 0-2 0-3 1-4 1-5 1-6 2-4 2-5 2-6 3-4 3-5 3-6 4-7 5-7 6-7")
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewAdHocInstance(g, Threshold(NodeSet(1, 2, 3, 4, 5, 6), 1), 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// diamondInstance is the examples/adhoc impossible fixture: the weak
// diamond, where safety forces the receiver to stay undecided.
func diamondInstance(t *testing.T) *Instance {
	t.Helper()
	g, err := ParseEdgeList("0-1 0-2 1-3 2-3")
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewAdHocInstance(g, StructureOf([]int{1}, []int{2}), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// k6Instance is the MBRB fixture: the complete graph K6 under a global
// threshold-1 adversary on the interior, so n=6 > 3t+2d holds up to one
// Byzantine player plus a budget-1 message adversary.
func k6Instance(t *testing.T) *Instance {
	t.Helper()
	g, err := ParseEdgeList("0-1 0-2 0-3 0-4 0-5 1-2 1-3 1-4 1-5 2-3 2-4 2-5 3-4 3-5 4-5")
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewAdHocInstance(g, Threshold(NodeSet(1, 2, 3, 4), 1), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func valueFlip(t *testing.T, in *Instance, node int) map[int]Process {
	t.Helper()
	corrupt, err := NewAttack("value-flip", in, NodeSet(node), "retreat at once")
	if err != nil {
		t.Fatal(err)
	}
	return corrupt
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{
			name:     "quickstart-pka-honest",
			protocol: ProtocolPKA,
			xD:       "attack at dawn",
			build: func(t *testing.T) (*Instance, map[int]Process) {
				return quickstartInstance(t), nil
			},
		},
		{
			name:     "quickstart-pka-silenced",
			protocol: ProtocolPKA,
			xD:       "attack at dawn",
			build: func(t *testing.T) (*Instance, map[int]Process) {
				return quickstartInstance(t), SilentCorruption(NodeSet(2))
			},
		},
		{
			name:     "adhoc-zcpa-layered-valueflip",
			protocol: ProtocolZCPA,
			xD:       "attack at dawn",
			build: func(t *testing.T) (*Instance, map[int]Process) {
				in := layeredInstance(t)
				return in, valueFlip(t, in, 5)
			},
		},
		{
			name:     "adhoc-zcpa-diamond-valueflip",
			protocol: ProtocolZCPA,
			xD:       "attack at dawn",
			build: func(t *testing.T) (*Instance, map[int]Process) {
				in := diamondInstance(t)
				return in, valueFlip(t, in, 1)
			},
		},
		{
			name:     "mbrb-k6-honest",
			protocol: ProtocolMBRB,
			xD:       "attack at dawn",
			build: func(t *testing.T) (*Instance, map[int]Process) {
				return k6Instance(t), nil
			},
		},
		{
			// The worst case the n > 3t + 2d bound provisions for: one
			// silent Byzantine player plus an eclipse adversary starving
			// one victim at the full budget d=1. Every correct non-victim
			// still delivers; the suppressed copies surface as lose events.
			name:     "mbrb-k6-eclipsed",
			protocol: ProtocolMBRB,
			xD:       "attack at dawn",
			build: func(t *testing.T) (*Instance, map[int]Process) {
				in := k6Instance(t)
				return in, SilentCorruption(NodeSet(1))
			},
			opts: func() RunOptions {
				return RunOptions{MABudget: 1, MsgAdversary: NewEclipse(2)}
			},
		},
		{
			// Secret sharing over the quickstart graph: with relay 1
			// corruptible and relays 2 and 3 each independently listenable,
			// the plan spreads XOR shares over the 2- and 3-paths, so
			// neither eavesdropping set sees them all.
			name:     "smt-quickstart-honest",
			protocol: ProtocolSMT,
			xD:       "attack at dawn",
			build: func(t *testing.T) (*Instance, map[int]Process) {
				g, err := ParseEdgeList("0-1 0-2 0-3 1-4 2-4 3-4")
				if err != nil {
					t.Fatal(err)
				}
				in, err := NewAdHocInstance(g, StructureOf([]int{1}), 0, 4)
				if err != nil {
					t.Fatal(err)
				}
				return in, nil
			},
			opts: func() RunOptions {
				return RunOptions{Listen: StructureOf([]int{2}, []int{3}), Seed: 7}
			},
		},
		{
			// Same run with a forwarding listener squatting on relay 2: the
			// wiretap changes no message, so the stream must match an honest
			// relay's — passivity pinned at the transcript level.
			name:     "smt-quickstart-listened",
			protocol: ProtocolSMT,
			xD:       "attack at dawn",
			build: func(t *testing.T) (*Instance, map[int]Process) {
				g, err := ParseEdgeList("0-1 0-2 0-3 1-4 2-4 3-4")
				if err != nil {
					t.Fatal(err)
				}
				in, err := NewAdHocInstance(g, StructureOf([]int{1}), 0, 4)
				if err != nil {
					t.Fatal(err)
				}
				corrupt, err := NewAttack("listener", in, NodeSet(2), "")
				if err != nil {
					t.Fatal(err)
				}
				return in, corrupt
			},
			opts: func() RunOptions {
				return RunOptions{Listen: StructureOf([]int{2}, []int{3}), Seed: 7}
			},
		},
	}
}

// transcriptJSONL runs the case under the given engine and returns the
// normalized JSONL event stream. Corruption overlays are stateful and
// single-use, so the case is rebuilt per run.
func transcriptJSONL(t *testing.T, gc goldenCase, engine Engine) []byte {
	t.Helper()
	in, corrupt := gc.build(t)
	var buf bytes.Buffer
	jt := NewJSONLTracer(&buf)
	var opts RunOptions
	if gc.opts != nil {
		opts = gc.opts()
	}
	opts.Engine, opts.Tracers = engine, []Tracer{jt}
	if _, err := RunProtocol(gc.protocol, in, gc.xD, corrupt, opts); err != nil {
		t.Fatalf("%s under %v: %v", gc.name, engine, err)
	}
	if err := jt.Err(); err != nil {
		t.Fatalf("%s under %v: jsonl: %v", gc.name, engine, err)
	}
	return normalizeEngine(buf.Bytes())
}

func TestGoldenTranscripts(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", gc.name+".jsonl")
			ref := transcriptJSONL(t, gc, Lockstep)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, ref, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden transcript (run with -update to create): %v", err)
			}
			for _, engine := range []Engine{Lockstep, Async} {
				got := transcriptJSONL(t, gc, engine)
				if !bytes.Equal(got, want) {
					t.Errorf("%v transcript differs from %s:\n%s", engine, path, diffLine(want, got))
				}
			}
		})
	}
}

// TestGoldenTranscriptsSeededAsync pins the async engine the other way: a
// fixed (schedule, seed) pair must reproduce its own stream byte-for-byte
// across runs — the determinism the schedule fuzzer's replay relies on.
func TestGoldenTranscriptsSeededAsync(t *testing.T) {
	gc := goldenCases()[0]
	runOnce := func() []byte {
		t.Helper()
		in, corrupt := gc.build(t)
		sched, err := NewScheduler("random", 42)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		jt := NewJSONLTracer(&buf)
		opts := RunOptions{Engine: Async, Scheduler: sched, Tracers: []Tracer{jt}}
		if _, err := RunProtocol(gc.protocol, in, gc.xD, corrupt, opts); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := runOnce(), runOnce()
	if !bytes.Equal(a, b) {
		t.Fatalf("seeded async run is not reproducible:\n%s", diffLine(a, b))
	}
	if !bytes.Contains(a, []byte(`"ev":"delay"`)) {
		t.Fatal("seeded random schedule produced no delay events")
	}
}

// diffLine renders the first differing line of two JSONL streams.
func diffLine(want, got []byte) string {
	w, g := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(w) && i < len(g); i++ {
		if !bytes.Equal(w[i], g[i]) {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("length differs: want %d lines, got %d", len(w), len(g))
}
