package network

import (
	"bytes"
	"strings"
	"testing"

	"rmt/internal/graph"
)

// chatterProc sends one payload to a fixed peer every round (Init included)
// and never halts; it decides on the first message it receives. The engine
// is what accepts or rejects the sends, so a chatter across a churned edge
// probes exactly the accept/drop flip the topology edit must cause.
type chatterProc struct {
	peer    int
	payload textPayload
	value   Value
	decided bool
}

func (p *chatterProc) Init(out Outbox) { out(p.peer, p.payload) }
func (p *chatterProc) Round(_ int, inbox []Message, out Outbox) bool {
	if len(inbox) > 0 && !p.decided {
		p.value = Value(inbox[0].Payload.(textPayload))
		p.decided = true
	}
	out(p.peer, p.payload)
	return true
}
func (p *chatterProc) Decision() (Value, bool) { return p.value, p.decided }

// churnChatterConfig wires chatters at both ends of the 0-1 edge of a
// 3-node line (node 2 stays silent), with the given churn schedule.
func churnChatterConfig(churn []ChurnEvent, maxRounds int) Config {
	g := graph.New()
	g.AddPath(0, 1, 2)
	return Config{
		Graph: g,
		Processes: map[int]Process{
			0: &chatterProc{peer: 1, payload: "from0"},
			1: &chatterProc{peer: 0, payload: "from1"},
			2: silentProc{},
		},
		MaxRounds: maxRounds,
		Churn:     churn,
	}
}

// TestChurnRemovalLosesInFlight removes the 0-1 edge at round 3: the two
// messages sent in round 2 are in the calendar for round 3 and must be
// recorded as losses, later sends must be dropped at the outbox, and the
// accounting law must still reconcile.
func TestChurnRemovalLosesInFlight(t *testing.T) {
	for _, engine := range []Engine{Lockstep, Async} {
		t.Run(engine.Name(), func(t *testing.T) {
			cfg := churnChatterConfig([]ChurnEvent{{Round: 3, RemoveEdges: [][2]int{{0, 1}}}}, 6)
			cfg.Engine = engine
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Metrics.Reconcile(); err != nil {
				t.Fatal(err)
			}
			// Rounds 0..2 produce 2 accepted sends each; everything later is
			// rejected at the outbox.
			if got, want := res.Metrics.MessagesSent, 6; got != want {
				t.Errorf("MessagesSent = %d, want %d", got, want)
			}
			if got, want := res.Metrics.MessagesLost, 2; got != want {
				t.Errorf("MessagesLost = %d, want %d (the round-3 in-flight pair)", got, want)
			}
			if got, want := res.Metrics.MessagesDelivered, 4; got != want {
				t.Errorf("MessagesDelivered = %d, want %d", got, want)
			}
			if res.Metrics.MessagesDropped == 0 {
				t.Error("expected post-removal sends to be dropped at the outbox")
			}
		})
	}
}

// TestChurnAdditionRevivesSends starts nodes 0 and 2 non-adjacent — every
// send from 0 to 2 is dropped, so without the churn-aware quiescence guard
// the run would stop after round 1 — and adds the 0-2 edge at round 4.
// The chatter's next send must be accepted and decided on by node 2.
func TestChurnAdditionRevivesSends(t *testing.T) {
	for _, engine := range []Engine{Lockstep, Async} {
		t.Run(engine.Name(), func(t *testing.T) {
			g := graph.New()
			g.AddEdge(0, 1)
			g.AddNode(2)
			cfg := Config{
				Graph: g,
				Processes: map[int]Process{
					0: &chatterProc{peer: 2, payload: "hello"},
					1: silentProc{},
					2: &chatterProc{peer: 0, payload: "reply"},
				},
				MaxRounds: 8,
				Engine:    engine,
				Churn:     []ChurnEvent{{Round: 4, AddEdges: [][2]int{{0, 2}}}},
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Metrics.Reconcile(); err != nil {
				t.Fatal(err)
			}
			if v, ok := res.DecisionOf(2); !ok || v != "hello" {
				t.Fatalf("node 2 decision = %q, %v; want %q after the round-4 edge addition", v, ok, "hello")
			}
			if at := res.DecidedAtRound[2]; at < 5 {
				t.Errorf("node 2 decided at round %d, before the edge existed", at)
			}
		})
	}
}

// churnRecorder captures the Churn event stream.
type churnRecorder struct {
	NopTracer
	rounds  []int
	added   [][][2]int
	removed [][][2]int
}

func (c *churnRecorder) Churn(round int, added, removed [][2]int) {
	c.rounds = append(c.rounds, round)
	c.added = append(c.added, added)
	c.removed = append(c.removed, removed)
}

// TestChurnTracerEvents checks that each ChurnEvent is announced exactly
// once, in schedule order, to user tracers, and that JSONLTracer renders
// the event with its edge lists.
func TestChurnTracerEvents(t *testing.T) {
	rec := &churnRecorder{}
	var buf bytes.Buffer
	cfg := churnChatterConfig([]ChurnEvent{
		{Round: 2, RemoveEdges: [][2]int{{1, 2}}},
		{Round: 3, AddEdges: [][2]int{{0, 2}}, RemoveEdges: [][2]int{{0, 1}}},
	}, 5)
	cfg.Tracers = []Tracer{rec, NewJSONLTracer(&buf)}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Metrics.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if len(rec.rounds) != 2 || rec.rounds[0] != 2 || rec.rounds[1] != 3 {
		t.Fatalf("churn event rounds = %v, want [2 3]", rec.rounds)
	}
	if len(rec.removed[0]) != 1 || rec.removed[0][0] != [2]int{1, 2} {
		t.Errorf("event 0 removed = %v, want [[1 2]]", rec.removed[0])
	}
	if len(rec.added[1]) != 1 || rec.added[1][0] != [2]int{0, 2} {
		t.Errorf("event 1 added = %v, want [[0 2]]", rec.added[1])
	}
	jsonl := buf.String()
	if !strings.Contains(jsonl, `"ev":"churn"`) {
		t.Error("JSONL stream has no churn event")
	}
	if !strings.Contains(jsonl, `"removed":[[0,1]]`) {
		t.Errorf("JSONL stream missing removed edge list:\n%s", jsonl)
	}
}

// TestChurnEnginesAgree pins the three in-process engines to identical
// observable behavior under a mixed churn schedule.
func TestChurnEnginesAgree(t *testing.T) {
	churn := []ChurnEvent{
		{Round: 2, RemoveEdges: [][2]int{{0, 1}}},
		{Round: 4, AddEdges: [][2]int{{0, 2}}},
	}
	type outcome struct {
		rounds    int
		metrics   Metrics
		decisions map[int]Value
	}
	results := map[string]outcome{}
	for _, engine := range []Engine{Lockstep, Async} {
		cfg := churnChatterConfig(churn, 6)
		cfg.Engine = engine
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Metrics.Reconcile(); err != nil {
			t.Fatalf("%s: %v", engine.Name(), err)
		}
		results[engine.Name()] = outcome{res.Rounds, res.Metrics, res.Decisions}
	}
	base := results[Lockstep.Name()]
	for name, got := range results {
		if got.rounds != base.rounds {
			t.Errorf("%s: rounds %d != lockstep %d", name, got.rounds, base.rounds)
		}
		if got.metrics.MessagesSent != base.metrics.MessagesSent ||
			got.metrics.MessagesDelivered != base.metrics.MessagesDelivered ||
			got.metrics.MessagesLost != base.metrics.MessagesLost ||
			got.metrics.MessagesDropped != base.metrics.MessagesDropped {
			t.Errorf("%s: metrics %+v != lockstep %+v", name, got.metrics, base.metrics)
		}
		if len(got.decisions) != len(base.decisions) {
			t.Errorf("%s: decisions %v != lockstep %v", name, got.decisions, base.decisions)
		}
	}
}

// TestChurnCallerGraphUntouched pins the clone-on-churn contract: the
// caller's graph must not change under a removal schedule.
func TestChurnCallerGraphUntouched(t *testing.T) {
	cfg := churnChatterConfig([]ChurnEvent{{Round: 2, RemoveEdges: [][2]int{{0, 1}}}}, 4)
	g := cfg.Graph
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) {
		t.Fatal("churn removal mutated the caller's graph")
	}
}

// TestChurnValidation exercises the up-front schedule validation.
func TestChurnValidation(t *testing.T) {
	cases := []struct {
		name  string
		churn []ChurnEvent
		want  string
	}{
		{"round zero", []ChurnEvent{{Round: 0, AddEdges: [][2]int{{0, 2}}}}, "rounds start at 1"},
		{"out of order", []ChurnEvent{{Round: 3, AddEdges: [][2]int{{0, 2}}}, {Round: 2, RemoveEdges: [][2]int{{0, 1}}}}, "round order"},
		{"self loop", []ChurnEvent{{Round: 1, AddEdges: [][2]int{{1, 1}}}}, "self-loop"},
		{"unknown node", []ChurnEvent{{Round: 1, AddEdges: [][2]int{{0, 9}}}}, "unknown endpoint"},
		{"existing edge", []ChurnEvent{{Round: 1, AddEdges: [][2]int{{0, 1}}}}, "existing edge"},
		{"absent edge", []ChurnEvent{{Round: 1, RemoveEdges: [][2]int{{0, 2}}}}, "absent edge"},
		{"stale cumulative state", []ChurnEvent{{Round: 1, RemoveEdges: [][2]int{{0, 1}}}, {Round: 2, RemoveEdges: [][2]int{{0, 1}}}}, "absent edge"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := churnChatterConfig(tc.churn, 4)
			_, err := Run(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want mention of %q", err, tc.want)
			}
		})
	}
	// A cumulative remove-then-re-add schedule is legal.
	ok := churnChatterConfig([]ChurnEvent{
		{Round: 1, RemoveEdges: [][2]int{{0, 1}}},
		{Round: 2, AddEdges: [][2]int{{0, 1}}},
	}, 4)
	if _, err := Run(ok); err != nil {
		t.Fatalf("remove-then-re-add schedule rejected: %v", err)
	}
}
