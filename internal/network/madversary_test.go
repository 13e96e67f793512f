package network

import (
	"testing"

	"rmt/internal/graph"
)

// flood is a minimal test process: the root broadcasts one payload at Init;
// every player re-broadcasts the first payload it receives, decides on it,
// and halts.
type flood struct {
	id        int
	neighbors []int
	start     Value
	decided   bool
	value     Value
}

type floodPayload struct{ X Value }

func (p floodPayload) BitSize() int { return 8 * len(p.X) }
func (p floodPayload) Key() string  { return "f:" + string(p.X) }

func (f *flood) Init(out Outbox) {
	if f.start == "" {
		return
	}
	f.decided, f.value = true, f.start
	for _, u := range f.neighbors {
		out(u, floodPayload{X: f.start})
	}
}

func (f *flood) Round(_ int, inbox []Message, out Outbox) bool {
	if f.decided {
		return false
	}
	if len(inbox) == 0 {
		return true
	}
	x := inbox[0].Payload.(floodPayload).X
	f.decided, f.value = true, x
	for _, u := range f.neighbors {
		out(u, floodPayload{X: x})
	}
	return false
}

func (f *flood) Decision() (Value, bool) { return f.value, f.decided }

// star builds a hub-and-spokes topology with the hub flooding "x".
func starConfig(n int, madv MessageAdversary) Config {
	g := graph.New()
	spokes := make([]int, 0, n-1)
	for v := 1; v < n; v++ {
		g.AddEdge(0, v)
		spokes = append(spokes, v)
	}
	procs := map[int]Process{0: &flood{id: 0, neighbors: spokes, start: "x"}}
	for _, v := range spokes {
		procs[v] = &flood{id: v, neighbors: []int{0}}
	}
	return Config{Graph: g, Processes: procs, MsgAdversary: madv, RecordTranscript: true}
}

// TestTargetedAdversarySuppressesBudget pins the per-broadcast budget: the
// hub's Init broadcast of 5 copies loses exactly d of them, the starved
// spokes never decide, and the accounting reconciles with the suppressions
// showing up as losses.
func TestTargetedAdversarySuppressesBudget(t *testing.T) {
	for _, d := range []int{0, 1, 2, 3} {
		madv := MustMessageAdversary(MATargeted, d, 0)
		res, err := Run(starConfig(6, madv))
		if err != nil {
			t.Fatal(err)
		}
		// Init broadcast: 5 copies, d suppressed. Each surviving spoke
		// echoes back one copy to the hub (one-copy broadcasts, so targeted
		// suppresses every one of them when d > 0).
		wantInit := d
		wantEcho := 0
		if d > 0 {
			wantEcho = 5 - d
		}
		if got := madv.Suppressed(); got != wantInit+wantEcho {
			t.Errorf("d=%d: suppressed %d copies, want %d", d, got, wantInit+wantEcho)
		}
		if res.Metrics.MessagesLost < madv.Suppressed() {
			t.Errorf("d=%d: lost %d < suppressed %d", d, res.Metrics.MessagesLost, madv.Suppressed())
		}
		if err := res.Metrics.Reconcile(); err != nil {
			t.Errorf("d=%d: %v", d, err)
		}
		decided := len(res.Decisions)
		if want := 6 - d; decided != want {
			t.Errorf("d=%d: %d players decided, want %d", d, decided, want)
		}
	}
}

// TestEclipseAdversaryStarvesVictims pins the explicit-victim construction:
// the victims receive nothing, everyone else is untouched.
func TestEclipseAdversaryStarvesVictims(t *testing.T) {
	madv := NewEclipse(2, 4)
	res, err := Run(starConfig(6, madv))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{2, 4} {
		if _, ok := res.DecisionOf(v); ok {
			t.Errorf("victim %d decided despite eclipse", v)
		}
	}
	for _, v := range []int{0, 1, 3, 5} {
		if got, ok := res.DecisionOf(v); !ok || got != "x" {
			t.Errorf("non-victim %d: decision %q, %v", v, got, ok)
		}
	}
	if got := madv.Suppressed(); got != 2 {
		t.Errorf("suppressed %d copies, want 2 (one per victim)", got)
	}
	if err := res.Metrics.Reconcile(); err != nil {
		t.Error(err)
	}
}

// TestSeededAdversariesReproduce pins seeded determinism: equal seeds yield
// identical transcripts and suppression counts, and the engines agree.
func TestSeededAdversariesReproduce(t *testing.T) {
	for _, name := range MessageAdversaryNames() {
		run := func(engine Engine, seed int64) (*Result, MessageAdversary) {
			madv := MustMessageAdversary(name, 2, seed)
			cfg := starConfig(8, madv)
			cfg.Engine = engine
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res, madv
		}
		a, am := run(Lockstep, 42)
		b, bm := run(Lockstep, 42)
		if a.Transcript.Key() != b.Transcript.Key() {
			t.Errorf("%s: equal seeds, different transcripts", name)
		}
		if am.Suppressed() != bm.Suppressed() {
			t.Errorf("%s: equal seeds, different suppression counts (%d vs %d)",
				name, am.Suppressed(), bm.Suppressed())
		}
		c, cm := run(Async, 42)
		if a.Transcript.Key() != c.Transcript.Key() {
			t.Errorf("%s: async transcript differs from lockstep", name)
		}
		if am.Suppressed() != cm.Suppressed() {
			t.Errorf("%s: async suppressed %d, lockstep %d", name, cm.Suppressed(), am.Suppressed())
		}
	}
}

// TestMessageAdversaryErrors covers constructor validation.
func TestMessageAdversaryErrors(t *testing.T) {
	if _, err := NewMessageAdversary("nope", 1, 0); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := NewMessageAdversary(MARandom, -1, 0); err == nil {
		t.Error("negative budget accepted")
	}
}
