package network

import (
	"strings"
	"testing"

	"rmt/internal/graph"
)

// textPayload is a trivial payload for engine tests.
type textPayload string

func (p textPayload) BitSize() int { return len(p) * 8 }
func (p textPayload) Key() string  { return string(p) }

// floodProc implements a minimal flooding protocol: the origin sends its
// value at Init; every player forwards the first value it hears to all
// neighbors and decides on it, then halts.
type floodProc struct {
	id        int
	neighbors []int
	origin    bool
	value     Value
	decided   bool
}

func (f *floodProc) Init(out Outbox) {
	if f.origin {
		f.decided = true
		for _, u := range f.neighbors {
			out(u, textPayload(f.value))
		}
	}
}

func (f *floodProc) Round(round int, inbox []Message, out Outbox) bool {
	if f.decided {
		return false
	}
	if len(inbox) == 0 {
		return true
	}
	f.value = Value(inbox[0].Payload.(textPayload))
	f.decided = true
	for _, u := range f.neighbors {
		out(u, inbox[0].Payload)
	}
	return false
}

func (f *floodProc) Decision() (Value, bool) { return f.value, f.decided }

func floodConfig(t *testing.T, g *graph.Graph, origin int, val Value) Config {
	t.Helper()
	procs := make(map[int]Process)
	g.Nodes().ForEach(func(v int) bool {
		procs[v] = &floodProc{id: v, neighbors: g.Neighbors(v).Members(), origin: v == origin, value: func() Value {
			if v == origin {
				return val
			}
			return ""
		}()}
		return true
	})
	return Config{Graph: g, Processes: procs}
}

func line(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := graph.New()
	for i := 0; i < n-1; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("Run accepted nil graph")
	}
	g := line(t, 3)
	if _, err := Run(Config{Graph: g, Processes: map[int]Process{}}); err == nil {
		t.Fatal("Run accepted missing processes")
	}
	if _, err := Run(Config{Graph: g, Processes: map[int]Process{0: &floodProc{}, 1: &floodProc{}, 5: &floodProc{}}}); err == nil {
		t.Fatal("Run accepted process map with wrong keys")
	}
	if _, err := ParseEngine("warp"); err == nil {
		t.Fatal("ParseEngine accepted unknown engine")
	} else if !strings.Contains(err.Error(), "lockstep") {
		t.Fatalf("unknown-engine error does not list registered names: %v", err)
	}
}

func TestFloodLockstep(t *testing.T) {
	g := line(t, 5)
	res, err := Run(floodConfig(t, g, 0, "attack"))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		if got, ok := res.Decisions[v]; !ok || got != "attack" {
			t.Errorf("node %d decision = %q, %v", v, got, ok)
		}
	}
	// Value reaches the far end in 4 rounds on a 5-line.
	if res.Rounds != 4 {
		t.Errorf("rounds = %d, want 4", res.Rounds)
	}
}

func TestFloodAsync(t *testing.T) {
	g := line(t, 5)
	cfg := floodConfig(t, g, 0, "attack")
	cfg.Engine = Async
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		if got := res.Decisions[v]; got != "attack" {
			t.Errorf("node %d decision = %q", v, got)
		}
	}
}

func TestEnginesProduceIdenticalTranscripts(t *testing.T) {
	g, err := graph.ParseEdgeList("0-1 0-2 1-3 2-3 3-4 1-2")
	if err != nil {
		t.Fatal(err)
	}
	run := func(e Engine) *Result {
		cfg := floodConfig(t, g, 0, "m")
		cfg.Engine = e
		cfg.RecordTranscript = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(Lockstep), run(Async)
	if a.Transcript.Key() != b.Transcript.Key() {
		t.Fatalf("transcripts differ:\n%s\nvs\n%s", a.Transcript.Key(), b.Transcript.Key())
	}
	if a.Rounds != b.Rounds || a.Metrics.MessagesSent != b.Metrics.MessagesSent {
		t.Fatal("metrics differ between engines")
	}
}

// nonNeighborSender tries to send everywhere, exercising the authenticated-
// channel drop rule.
type nonNeighborSender struct{ n int }

func (s *nonNeighborSender) Init(out Outbox) {
	for v := 0; v < s.n; v++ {
		out(v, textPayload("spam"))
	}
}
func (s *nonNeighborSender) Round(int, []Message, Outbox) bool { return false }
func (s *nonNeighborSender) Decision() (Value, bool)           { return "", false }

// sink receives and counts.
type sink struct{ got int }

func (s *sink) Init(Outbox) {}
func (s *sink) Round(_ int, inbox []Message, _ Outbox) bool {
	s.got += len(inbox)
	return true
}
func (s *sink) Decision() (Value, bool) { return "", false }

func TestNonNeighborSendsDropped(t *testing.T) {
	g := line(t, 4) // 0-1-2-3; node 0 adjacent only to 1
	sinks := map[int]*sink{1: {}, 2: {}, 3: {}}
	procs := map[int]Process{0: &nonNeighborSender{n: 4}, 1: sinks[1], 2: sinks[2], 3: sinks[3]}
	res, err := Run(Config{Graph: g, Processes: procs})
	if err != nil {
		t.Fatal(err)
	}
	if sinks[1].got != 1 || sinks[2].got != 0 || sinks[3].got != 0 {
		t.Fatalf("deliveries = %d/%d/%d, want 1/0/0", sinks[1].got, sinks[2].got, sinks[3].got)
	}
	// 4 sends: self + 3 others; only 0→1 accepted.
	if res.Metrics.MessagesSent != 1 || res.Metrics.MessagesDropped != 3 {
		t.Fatalf("sent/dropped = %d/%d, want 1/3", res.Metrics.MessagesSent, res.Metrics.MessagesDropped)
	}
}

func TestMetrics(t *testing.T) {
	g := line(t, 3)
	cfg := floodConfig(t, g, 0, "ab") // 2 bytes = 16 bits per message
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sends: 0→1 (init), then 1→{0,2}, then 2→1 = 4 messages.
	if res.Metrics.MessagesSent != 4 {
		t.Fatalf("MessagesSent = %d, want 4", res.Metrics.MessagesSent)
	}
	if res.Metrics.BitsSent != 4*16 {
		t.Fatalf("BitsSent = %d, want 64", res.Metrics.BitsSent)
	}
	if res.Metrics.MessagesPerRound[0] != 1 {
		t.Fatalf("round-0 sends = %d, want 1", res.Metrics.MessagesPerRound[0])
	}
	if res.Metrics.MaxInboxPerPlayer < 1 {
		t.Fatal("MaxInboxPerPlayer not tracked")
	}
}

// silentProc never sends and never halts.
type silentProc struct{}

func (silentProc) Init(Outbox) {}
func (silentProc) Round(int, []Message, Outbox) bool {
	return true
}
func (silentProc) Decision() (Value, bool) { return "", false }

func TestQuiescenceStopsRun(t *testing.T) {
	g := line(t, 3)
	procs := map[int]Process{0: silentProc{}, 1: silentProc{}, 2: silentProc{}}
	res, err := Run(Config{Graph: g, Processes: procs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 1 {
		t.Fatalf("silent network ran %d rounds", res.Rounds)
	}
}

func TestMaxRoundsBound(t *testing.T) {
	// A two-node ping-pong never quiesces; MaxRounds must stop it.
	g := line(t, 2)
	procs := map[int]Process{0: &pingPong{peer: 1}, 1: &pingPong{peer: 0}}
	res, err := Run(Config{Graph: g, Processes: procs, MaxRounds: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 7 {
		t.Fatalf("rounds = %d, want 7", res.Rounds)
	}
}

type pingPong struct{ peer int }

func (p *pingPong) Init(out Outbox) { out(p.peer, textPayload("ping")) }
func (p *pingPong) Round(_ int, inbox []Message, out Outbox) bool {
	for range inbox {
		out(p.peer, textPayload("ping"))
	}
	return true
}
func (p *pingPong) Decision() (Value, bool) { return "", false }

func TestStopEarly(t *testing.T) {
	g := line(t, 6)
	cfg := floodConfig(t, g, 0, "x")
	cfg.StopEarly = func(d map[int]Value) bool {
		_, ok := d[2]
		return ok
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2 (stop when node 2 decides)", res.Rounds)
	}
	if _, ok := res.Decisions[5]; ok {
		t.Fatal("node 5 decided before the value could reach it")
	}
}

func TestHaltedPlayersReceiveNothing(t *testing.T) {
	// Node 1 halts immediately; later messages to it vanish.
	g := line(t, 3)
	s := &sink{}
	procs := map[int]Process{
		0: &delayedSender{to: 1},
		1: &haltImmediately{},
		2: s,
	}
	if _, err := Run(Config{Graph: g, Processes: procs}); err != nil {
		t.Fatal(err)
	}
	if s.got != 0 {
		t.Fatal("sink got messages unexpectedly")
	}
}

type haltImmediately struct{}

func (haltImmediately) Init(Outbox) {}
func (haltImmediately) Round(int, []Message, Outbox) bool {
	return false
}
func (haltImmediately) Decision() (Value, bool) { return "", false }

type delayedSender struct{ to int }

func (d *delayedSender) Init(Outbox) {}
func (d *delayedSender) Round(round int, _ []Message, out Outbox) bool {
	if round == 2 {
		out(d.to, textPayload("late"))
		return false
	}
	return true
}
func (d *delayedSender) Decision() (Value, bool) { return "", false }

func TestTranscriptViews(t *testing.T) {
	g := line(t, 3)
	cfg := floodConfig(t, g, 0, "v")
	cfg.RecordTranscript = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Transcript
	if tr == nil {
		t.Fatal("transcript missing")
	}
	// Node 0's view: its init send 0→1 (delivered round 1) and 1→0 (round 2).
	v0 := tr.ViewOf(0, 0)
	if len(v0) != 2 {
		t.Fatalf("view(0) = %v", v0)
	}
	if v0[0].Key() != "0>1:v" || v0[1].Key() != "1>0:v" {
		t.Fatalf("view(0) keys = %q, %q", v0[0].Key(), v0[1].Key())
	}
	// Truncated views.
	if got := tr.ViewOf(0, 1); len(got) != 1 {
		t.Fatalf("view(0,1) = %v", got)
	}
	// ViewKey equality for identical reruns.
	res2, err := Run(func() Config {
		c := floodConfig(t, g, 0, "v")
		c.RecordTranscript = true
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	if tr.ViewKey(1, 0) != res2.Transcript.ViewKey(1, 0) {
		t.Fatal("identical runs produced different view keys")
	}
	if tr.NumMessages() != res.Metrics.MessagesSent {
		t.Fatal("transcript message count != metric")
	}
	if tr.Rounds() == 0 || len(tr.Deliveries(1)) != 1 {
		t.Fatal("transcript rounds/deliveries wrong")
	}
}

func TestEngineRegistry(t *testing.T) {
	if Lockstep.Name() != "lockstep" || Async.Name() != "async" {
		t.Fatal("Engine.Name wrong")
	}
	// This package imports no out-of-package engine, so the registry holds
	// exactly the built-ins.
	names := EngineNames()
	if got, want := strings.Join(names, ","), "async,lockstep"; got != want {
		t.Fatalf("EngineNames() = %v, want %s", names, want)
	}
	for _, name := range names {
		e, err := ParseEngine(name)
		if err != nil || e.Name() != name {
			t.Fatalf("ParseEngine(%q) = %v, %v", name, e, err)
		}
	}
}

func TestMessageKey(t *testing.T) {
	m := Message{From: 2, To: 7, Payload: textPayload("zz")}
	if m.Key() != "2>7:zz" {
		t.Fatalf("Message.Key = %q", m.Key())
	}
}

func TestDecidedAtRound(t *testing.T) {
	g := line(t, 5)
	res, err := Run(floodConfig(t, g, 0, "x"))
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range map[int]int{0: 0, 1: 1, 2: 2, 3: 3, 4: 4} {
		if got, ok := res.DecidedAtRound[v]; !ok || got != want {
			t.Errorf("node %d decided at round %d (%v), want %d", v, got, ok, want)
		}
	}
}

func TestDecidedAtRoundEnginesAgree(t *testing.T) {
	g := line(t, 4)
	cfgA := floodConfig(t, g, 0, "x")
	a, err := Run(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	cfgB := floodConfig(t, g, 0, "x")
	cfgB.Engine = Async
	b, err := Run(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		if a.DecidedAtRound[v] != b.DecidedAtRound[v] {
			t.Errorf("node %d: lockstep %d vs async %d", v, a.DecidedAtRound[v], b.DecidedAtRound[v])
		}
	}
}
