package network

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rmt/internal/graph"
)

// recordingTracer captures the full event stream for reconciliation tests.
type recordingTracer struct {
	NopTracer
	events       []string // canonical event log, for cross-engine comparison
	sendsPerRnd  map[int]int
	bitsPerRnd   map[int]int
	drops        int
	delivers     map[int]int // round → messages delivered
	decides      map[int]Value
	halts        map[int]int // player → round
	endRoundSent map[int]int
	rounds       int
	began        int
}

func newRecordingTracer() *recordingTracer {
	return &recordingTracer{
		sendsPerRnd:  map[int]int{},
		bitsPerRnd:   map[int]int{},
		delivers:     map[int]int{},
		decides:      map[int]Value{},
		halts:        map[int]int{},
		endRoundSent: map[int]int{},
	}
}

func (r *recordingTracer) BeginRun(nodes, edges int, e Engine) {
	r.began++
	r.events = append(r.events, fmt.Sprintf("begin %d %d", nodes, edges))
}

func (r *recordingTracer) Send(round int, m Message) {
	r.sendsPerRnd[round]++
	r.bitsPerRnd[round] += m.Payload.BitSize()
	r.events = append(r.events, fmt.Sprintf("send %d %s", round, m.Key()))
}

func (r *recordingTracer) Drop(round int, m Message) {
	r.drops++
	r.events = append(r.events, fmt.Sprintf("drop %d %d>%d", round, m.From, m.To))
}

func (r *recordingTracer) Deliver(round, player int, inbox []Message) {
	r.delivers[round] += len(inbox)
	r.events = append(r.events, fmt.Sprintf("deliver %d %d #%d", round, player, len(inbox)))
}

func (r *recordingTracer) Decide(round, player int, x Value) {
	r.decides[player] = x
	r.events = append(r.events, fmt.Sprintf("decide %d %d %s", round, player, x))
}

func (r *recordingTracer) Halt(round, player int) {
	r.halts[player] = round
	r.events = append(r.events, fmt.Sprintf("halt %d %d", round, player))
}

func (r *recordingTracer) EndRound(round, sent int) {
	r.endRoundSent[round] = sent
	r.events = append(r.events, fmt.Sprintf("end-round %d %d", round, sent))
}

func (r *recordingTracer) EndRun(rounds int) {
	r.rounds = rounds
	r.events = append(r.events, fmt.Sprintf("end-run %d", rounds))
}

// randomConnectedGraph builds a connected G(n, p)-style graph: a random
// spanning path plus independent extra edges.
func randomConnectedGraph(rng *rand.Rand, n int, p float64) *graph.Graph {
	g := graph.New()
	perm := rng.Perm(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(perm[i], perm[i+1])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// TestTracerReconciliation is the tracer/transcript reconciliation property:
// on randomized instances, under both engines, the Tracer event stream must
// agree with the Transcript (per-round sends, deliveries at round+1, bits)
// and with Result.Metrics, and the event stream itself must be identical
// across engines.
func TestTracerReconciliation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(6)
		g := randomConnectedGraph(rng, n, 0.3)
		origin := rng.Intn(n)
		val := Value(fmt.Sprintf("v%d", trial))

		var streams [2][]string
		for i, eng := range []Engine{Lockstep, Async} {
			rt := newRecordingTracer()
			cfg := floodConfig(t, g, origin, val)
			cfg.Engine = eng
			cfg.RecordTranscript = true
			cfg.Tracers = []Tracer{rt}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, eng, err)
			}
			reconcile(t, trial, eng, rt, res)
			streams[i] = rt.events
		}
		if strings.Join(streams[0], "\n") != strings.Join(streams[1], "\n") {
			t.Fatalf("trial %d: event streams differ between engines:\nlockstep:\n%s\nasync:\n%s",
				trial, strings.Join(streams[0], "\n"), strings.Join(streams[1], "\n"))
		}
	}
}

func reconcile(t *testing.T, trial int, eng Engine, rt *recordingTracer, res *Result) {
	t.Helper()
	if rt.began != 1 {
		t.Fatalf("trial %d %v: BeginRun called %d times", trial, eng, rt.began)
	}
	if rt.rounds != res.Rounds {
		t.Fatalf("trial %d %v: EndRun rounds %d != Result.Rounds %d", trial, eng, rt.rounds, res.Rounds)
	}

	// Sends, bits and drops reconcile with Result.Metrics.
	totSends, totBits := 0, 0
	for r, c := range rt.sendsPerRnd {
		totSends += c
		totBits += rt.bitsPerRnd[r]
		if got := rt.endRoundSent[r]; got != c {
			t.Fatalf("trial %d %v: round %d EndRound sent %d != observed sends %d", trial, eng, r, got, c)
		}
		if r < len(res.Metrics.MessagesPerRound) && res.Metrics.MessagesPerRound[r] != c {
			t.Fatalf("trial %d %v: round %d MessagesPerRound %d != tracer sends %d",
				trial, eng, r, res.Metrics.MessagesPerRound[r], c)
		}
	}
	if totSends != res.Metrics.MessagesSent {
		t.Fatalf("trial %d %v: tracer sends %d != Metrics.MessagesSent %d", trial, eng, totSends, res.Metrics.MessagesSent)
	}
	if totBits != res.Metrics.BitsSent {
		t.Fatalf("trial %d %v: tracer bits %d != Metrics.BitsSent %d", trial, eng, totBits, res.Metrics.BitsSent)
	}
	if rt.drops != res.Metrics.MessagesDropped {
		t.Fatalf("trial %d %v: tracer drops %d != Metrics.MessagesDropped %d", trial, eng, rt.drops, res.Metrics.MessagesDropped)
	}

	// Sends reconcile with the Transcript: a send in round r is the
	// delivery set of round r+1.
	for r, c := range rt.sendsPerRnd {
		if got := len(res.Transcript.Deliveries(r + 1)); got != c {
			t.Fatalf("trial %d %v: transcript deliveries(%d)=%d != tracer sends in round %d = %d",
				trial, eng, r+1, got, r, c)
		}
	}
	if res.Transcript.NumMessages() != totSends {
		t.Fatalf("trial %d %v: transcript has %d messages, tracer saw %d sends",
			trial, eng, res.Transcript.NumMessages(), totSends)
	}

	// Deliveries never exceed the prior round's sends (halted players'
	// mail is not handed over), and only live players receive.
	for r, d := range rt.delivers {
		if sent := rt.sendsPerRnd[r-1]; d > sent {
			t.Fatalf("trial %d %v: round %d delivered %d > %d sent in round %d",
				trial, eng, r, d, sent, r-1)
		}
	}

	// Decisions reconcile with the Result.
	if len(rt.decides) != len(res.Decisions) {
		t.Fatalf("trial %d %v: tracer saw %d decisions, result has %d",
			trial, eng, len(rt.decides), len(res.Decisions))
	}
	for v, x := range rt.decides {
		if res.Decisions[v] != x {
			t.Fatalf("trial %d %v: player %d decision %q != result %q", trial, eng, v, x, res.Decisions[v])
		}
	}
}

// TestTracerSeesDrops asserts Drop events fire for non-edge sends.
func TestTracerSeesDrops(t *testing.T) {
	g := line(t, 3)
	rt := newRecordingTracer()
	procs := map[int]Process{
		0: &nonNeighborSender{n: 2}, // 0-2 is not an edge
		1: &sink{},
		2: &sink{},
	}
	if _, err := Run(Config{Graph: g, Processes: procs, Tracers: []Tracer{rt}}); err != nil {
		t.Fatal(err)
	}
	if rt.drops == 0 {
		t.Fatal("no Drop events for non-edge sends")
	}
}

// TestJSONLTracer checks the JSONL stream is well-formed and complete.
func TestJSONLTracer(t *testing.T) {
	g := line(t, 4)
	var buf bytes.Buffer
	jt := NewJSONLTracer(&buf)
	cfg := floodConfig(t, g, 0, "hello")
	cfg.Tracers = []Tracer{jt}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := jt.Err(); err != nil {
		t.Fatalf("JSONL tracer error: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	seen := map[string]bool{}
	for _, ln := range lines {
		var ev struct {
			Ev string `json:"ev"`
		}
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", ln, err)
		}
		seen[ev.Ev] = true
	}
	for _, want := range []string{"run", "send", "deliver", "decide", "halt", "round-end", "run-end"} {
		if !seen[want] {
			t.Fatalf("JSONL stream missing %q events; got %v", want, seen)
		}
	}
}

// TestMetricsTracerMatchesLegacyCounters pins the stock metrics tracer to
// the documented Metrics semantics on a deterministic run.
func TestMetricsTracerMatchesLegacyCounters(t *testing.T) {
	g := line(t, 5)
	rt := newRecordingTracer()
	cfg := floodConfig(t, g, 0, "m")
	cfg.Tracers = []Tracer{rt}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Flood on a 5-line from one end: each player forwards once.
	if res.Metrics.MessagesSent == 0 || res.Metrics.BitsSent == 0 {
		t.Fatalf("empty metrics: %+v", res.Metrics)
	}
	if got := len(res.Metrics.MessagesPerRound); got != res.Rounds+1 {
		t.Fatalf("MessagesPerRound has %d entries for %d rounds", got, res.Rounds)
	}
}
