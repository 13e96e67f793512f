package network

import (
	"encoding/json"
	"io"
)

// Tracer observes a run as it executes: every accepted send, every dropped
// send, every delivery, decision and halt, with round boundaries. The
// engine's own complexity metrics and the transcript recorder are two stock
// Tracers (MetricsTracer, TranscriptTracer); JSONLTracer streams the same
// events as structured JSONL for offline analysis. Install extra observers
// with Config.Tracers.
//
// Engines invoke all Tracer methods serially from the goroutine running the
// round loop, so implementations need no locking. Within a round, after
// the Churn and Lose events of its start, every live player's Deliver event
// comes first; then, player by player in ID order, that player's
// Send/Drop/Delay (and Lose, for suppressed copies) events followed by its
// Halt.
type Tracer interface {
	// BeginRun is called once before Init with the topology and engine.
	BeginRun(nodes, edges int, engine Engine)
	// Send is an accepted send made in round (0 = Init); the message is
	// delivered in round+1 unless a Delay event for it follows immediately.
	Send(round int, m Message)
	// Delay announces that the async engine's scheduler assigned the
	// message just reported by Send a delivery round other than sent+1.
	// It is emitted immediately after that Send, and only when the
	// delivery round differs; synchronous engines never emit it.
	Delay(sent, deliver int, m Message)
	// Drop is a rejected send (non-edge or self destination) in round.
	Drop(round int, m Message)
	// Lose is an accepted send that will never reach a live player: its
	// recipient halted before the delivery round, the carrying edge was
	// removed by churn, the message adversary suppressed the copy (that
	// Lose follows the copy's Send immediately), or the run ended (final
	// round, early stop, quiescence) with the message still in the delivery
	// calendar. round is the delivery round the message was scheduled for
	// (the synchronous sent+1 for suppressed copies). Every accepted send
	// is eventually reported by exactly one of Deliver (as part of an
	// inbox) or Lose, so MessagesSent == MessagesDelivered + MessagesLost
	// reconciles.
	Lose(round int, m Message)
	// Churn is a topology edit taking effect at the start of round, before
	// that round's deliveries: one event per Config.Churn entry, in order.
	// The Lose events for calendar messages severed by the removals follow
	// immediately after the round's Churn events. Tracers must not retain
	// or mutate the edge slices.
	Churn(round int, added, removed [][2]int)
	// Deliver is the inbox handed to a live player at the start of round.
	Deliver(round, player int, inbox []Message)
	// Decide is a player's first observed decision (round 0 = during Init).
	Decide(round, player int, x Value)
	// Halt is a player's Round returning false in round.
	Halt(round, player int)
	// EndRound closes round with the number of sends it produced.
	EndRound(round, sent int)
	// EndRun is called once after the last round, before Result assembly.
	EndRun(rounds int)
}

// NopTracer implements Tracer with no-ops; embed it to observe a subset of
// events.
type NopTracer struct{}

// BeginRun implements Tracer.
func (NopTracer) BeginRun(int, int, Engine) {}

// Send implements Tracer.
func (NopTracer) Send(int, Message) {}

// Delay implements Tracer.
func (NopTracer) Delay(int, int, Message) {}

// Drop implements Tracer.
func (NopTracer) Drop(int, Message) {}

// Lose implements Tracer.
func (NopTracer) Lose(int, Message) {}

// Churn implements Tracer.
func (NopTracer) Churn(int, [][2]int, [][2]int) {}

// Deliver implements Tracer.
func (NopTracer) Deliver(int, int, []Message) {}

// Decide implements Tracer.
func (NopTracer) Decide(int, int, Value) {}

// Halt implements Tracer.
func (NopTracer) Halt(int, int) {}

// EndRound implements Tracer.
func (NopTracer) EndRound(int, int) {}

// EndRun implements Tracer.
func (NopTracer) EndRun(int) {}

// MetricsTracer accumulates the paper's complexity measures from the event
// stream. The engine always installs one; Result.Metrics is its output.
type MetricsTracer struct {
	NopTracer
	m Metrics
}

// NewMetricsTracer returns an empty metrics accumulator.
func NewMetricsTracer() *MetricsTracer { return &MetricsTracer{} }

// Send implements Tracer.
func (t *MetricsTracer) Send(round int, m Message) {
	t.m.MessagesSent++
	t.m.BitsSent += m.Payload.BitSize()
}

// Delay implements Tracer.
func (t *MetricsTracer) Delay(int, int, Message) { t.m.MessagesDelayed++ }

// Drop implements Tracer.
func (t *MetricsTracer) Drop(int, Message) { t.m.MessagesDropped++ }

// Lose implements Tracer.
func (t *MetricsTracer) Lose(int, Message) { t.m.MessagesLost++ }

// Deliver implements Tracer.
func (t *MetricsTracer) Deliver(_, _ int, inbox []Message) {
	t.m.MessagesDelivered += len(inbox)
	if len(inbox) > t.m.MaxInboxPerPlayer {
		t.m.MaxInboxPerPlayer = len(inbox)
	}
}

// EndRound implements Tracer.
func (t *MetricsTracer) EndRound(round, sent int) {
	for len(t.m.MessagesPerRound) <= round {
		t.m.MessagesPerRound = append(t.m.MessagesPerRound, 0)
	}
	t.m.MessagesPerRound[round] = sent
}

// Metrics returns the accumulated counters.
func (t *MetricsTracer) Metrics() Metrics { return t.m }

// TranscriptTracer records every accepted send into a Transcript, indexed
// by delivery round. Config.RecordTranscript installs one; Result.Transcript
// is its output.
type TranscriptTracer struct {
	NopTracer
	t *Transcript
}

// NewTranscriptTracer returns an empty transcript recorder.
func NewTranscriptTracer() *TranscriptTracer {
	return &TranscriptTracer{t: newTranscript()}
}

// Send implements Tracer: a send in round is delivered in round+1.
func (t *TranscriptTracer) Send(round int, m Message) { t.t.record(round+1, m) }

// Delay implements Tracer: the engine emits Delay immediately after the
// delayed message's Send, so the recorder relocates the just-recorded
// message from the synchronous round sent+1 to its actual delivery round.
func (t *TranscriptTracer) Delay(sent, deliver int, _ Message) {
	t.t.relocateLast(sent+1, deliver)
}

// Transcript returns the recorded transcript.
func (t *TranscriptTracer) Transcript() *Transcript { return t.t }

// JSONLTracer streams every event as one JSON object per line, for offline
// analysis of large runs without holding a transcript in memory. Payloads
// are rendered via their canonical Key. Write errors are sticky: the first
// one is retained (see Err) and further events are discarded.
type JSONLTracer struct {
	w   io.Writer
	err error
}

// NewJSONLTracer writes events to w. The caller owns w (and any buffering
// or closing it needs).
func NewJSONLTracer(w io.Writer) *JSONLTracer { return &JSONLTracer{w: w} }

// jsonlEvent is the wire form of one event line. Node-ID fields (from, to,
// player) are pointers: 0 is a valid node ID, so presence must be distinct
// from absence.
type jsonlEvent struct {
	Ev      string `json:"ev"`
	Round   int    `json:"round"`
	At      int    `json:"at,omitempty"` // delivery round of a delayed send
	From    *int   `json:"from,omitempty"`
	To      *int   `json:"to,omitempty"`
	Player  *int   `json:"player,omitempty"`
	Bits    int    `json:"bits,omitempty"`
	Count   int    `json:"count,omitempty"`
	Payload string `json:"payload,omitempty"`
	Value   string `json:"value,omitempty"`
	Nodes   int    `json:"nodes,omitempty"`
	Edges   int    `json:"edges,omitempty"`
	Engine  string `json:"engine,omitempty"`

	Added   [][2]int `json:"added,omitempty"`
	Removed [][2]int `json:"removed,omitempty"`
}

func id(v int) *int { return &v }

func (t *JSONLTracer) emit(e jsonlEvent) {
	if t.err != nil {
		return
	}
	data, err := json.Marshal(e)
	if err != nil {
		t.err = err
		return
	}
	if _, err := t.w.Write(append(data, '\n')); err != nil {
		t.err = err
	}
}

// BeginRun implements Tracer.
func (t *JSONLTracer) BeginRun(nodes, edges int, engine Engine) {
	t.emit(jsonlEvent{Ev: "run", Nodes: nodes, Edges: edges, Engine: engine.Name()})
}

// Send implements Tracer.
func (t *JSONLTracer) Send(round int, m Message) {
	t.emit(jsonlEvent{Ev: "send", Round: round, From: id(m.From), To: id(m.To),
		Bits: m.Payload.BitSize(), Payload: m.Payload.Key()})
}

// Delay implements Tracer.
func (t *JSONLTracer) Delay(sent, deliver int, m Message) {
	t.emit(jsonlEvent{Ev: "delay", Round: sent, At: deliver, From: id(m.From), To: id(m.To)})
}

// Drop implements Tracer.
func (t *JSONLTracer) Drop(round int, m Message) {
	t.emit(jsonlEvent{Ev: "drop", Round: round, From: id(m.From), To: id(m.To)})
}

// Lose implements Tracer.
func (t *JSONLTracer) Lose(round int, m Message) {
	t.emit(jsonlEvent{Ev: "lose", Round: round, From: id(m.From), To: id(m.To)})
}

// Churn implements Tracer.
func (t *JSONLTracer) Churn(round int, added, removed [][2]int) {
	t.emit(jsonlEvent{Ev: "churn", Round: round, Added: added, Removed: removed})
}

// Deliver implements Tracer.
func (t *JSONLTracer) Deliver(round, player int, inbox []Message) {
	t.emit(jsonlEvent{Ev: "deliver", Round: round, Player: id(player), Count: len(inbox)})
}

// Decide implements Tracer.
func (t *JSONLTracer) Decide(round, player int, x Value) {
	t.emit(jsonlEvent{Ev: "decide", Round: round, Player: id(player), Value: string(x)})
}

// Halt implements Tracer.
func (t *JSONLTracer) Halt(round, player int) {
	t.emit(jsonlEvent{Ev: "halt", Round: round, Player: id(player)})
}

// EndRound implements Tracer.
func (t *JSONLTracer) EndRound(round, sent int) {
	t.emit(jsonlEvent{Ev: "round-end", Round: round, Count: sent})
}

// EndRun implements Tracer.
func (t *JSONLTracer) EndRun(rounds int) {
	t.emit(jsonlEvent{Ev: "run-end", Round: rounds})
}

// Err returns the first write or marshal error, if any.
func (t *JSONLTracer) Err() error { return t.err }
