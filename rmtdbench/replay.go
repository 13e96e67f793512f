package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"rmt/internal/adversary"
	"rmt/internal/byzantine"
	"rmt/internal/cliutil"
	"rmt/internal/core"
	"rmt/internal/eval"
	"rmt/internal/feasibility"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
	"rmt/internal/server"
	"rmt/internal/zcpa"
)

// This file rebuilds rmtd's reply bodies from the layers' public functions,
// in the order internal/server's handlers call them. The same code serves
// three purposes: with tracing off it computes each workload's expected
// replies in set-up; with tracing on it is the per-layer replay, one span
// around each call into a layer; and because the traced replay must produce
// bodies byte-identical to the real handler's, it checks that the spans
// follow the path the daemon actually takes.

type traceMode int

const (
	traceOff    traceMode = iota
	traceTime             // spans record wall time
	traceAllocs           // spans record heap allocations (runtime.MemStats.Mallocs)
)

// interval is one span's extent, kept per request to measure how much of
// the request its child spans cover.
type interval struct{ start, end time.Time }

// tracer records one value per call into a layer. The zero mode records
// nothing, so untraced runs pay only a function call per span.
type tracer struct {
	mode traceMode

	mu     sync.Mutex
	calls  map[string][]float64 // span name → µs or allocs, one per call
	counts map[string][]float64 // exact counts recorded outside spans
	cur    []interval           // spans of the request being replayed
}

func newTracer(mode traceMode) *tracer {
	return &tracer{mode: mode, calls: make(map[string][]float64), counts: make(map[string][]float64)}
}

// span runs f as one call into the layer named by name.
func (t *tracer) span(name string, f func()) {
	switch t.mode {
	case traceTime:
		start := time.Now()
		f()
		end := time.Now()
		t.mu.Lock()
		t.calls[name] = append(t.calls[name], float64(end.Sub(start).Nanoseconds())/1e3)
		t.cur = append(t.cur, interval{start, end})
		t.mu.Unlock()
	case traceAllocs:
		before := mallocs()
		f()
		n := mallocs() - before
		t.mu.Lock()
		t.calls[name] = append(t.calls[name], float64(n))
		t.mu.Unlock()
	default:
		f()
	}
}

// record adds one value under name outside any span (exact counts).
func (t *tracer) record(name string, v float64) {
	if t.mode == traceOff {
		return
	}
	t.mu.Lock()
	t.counts[name] = append(t.counts[name], v)
	t.mu.Unlock()
}

// takeCovered returns the length of the union of the spans recorded since
// the last call, and forgets them.
func (t *tracer) takeCovered() time.Duration {
	t.mu.Lock()
	spans := t.cur
	t.cur = nil
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	var total time.Duration
	var end time.Time
	for _, s := range spans {
		if s.start.After(end) {
			end = s.start
		}
		if s.end.After(end) {
			total += s.end.Sub(end)
			end = s.end
		}
	}
	return total
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// replayer assembles reply bodies the way rmtd's handlers do.
type replayer struct {
	tr *tracer
	// cache stands in for rmtd's result cache after warm-up: keys found
	// here are answered without compute, as the daemon answers hits.
	cache map[string][]byte
	// fill makes every computed body enter cache (warm-up).
	fill bool

	// Incremental-checker effort summed over replayed watch subscriptions.
	repairedR, freshR, repairedZ, freshZ int
}

func newReplayer(tr *tracer) *replayer {
	return &replayer{tr: tr, cache: make(map[string][]byte)}
}

// store keeps body under key while warming up.
func (rp *replayer) store(key string, body []byte) {
	if rp.fill {
		rp.cache[key] = body
	}
}

// replay dispatches one request body by endpoint path.
func (rp *replayer) replay(path string, body []byte) ([]byte, error) {
	switch path {
	case pathFeasibility:
		return rp.feasibility(body)
	case pathRun:
		return rp.run(body)
	case pathWatch:
		return rp.watch(body)
	}
	return nil, fmt.Errorf("replay: unknown path %q", path)
}

// decodeStrict decodes one JSON document the way the server does: unknown
// fields are errors.
func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func marshalBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// parsed is an InstanceRequest after the cliutil layer.
type parsed struct {
	g     *graph.Graph
	z     adversary.Structure
	level gen.Knowledge
}

func parseInstance(q server.InstanceRequest) (parsed, error) {
	if strings.TrimSpace(q.Graph) == "" {
		return parsed{}, errors.New("graph is required")
	}
	g, err := graph.ParseEdgeList(q.Graph)
	if err != nil {
		return parsed{}, err
	}
	z, err := cliutil.ParseStructure(q.Structure)
	if err != nil {
		return parsed{}, err
	}
	level := gen.AdHoc
	if q.Knowledge != "" {
		if level, err = cliutil.ParseKnowledge(q.Knowledge); err != nil {
			return parsed{}, err
		}
	}
	return parsed{g, z, level}, nil
}

// build runs the cliutil and gen layers on an instance request.
func (rp *replayer) build(q server.InstanceRequest) (*instance.Instance, gen.Knowledge, error) {
	var p parsed
	var err error
	rp.tr.span("cliutil.parse", func() { p, err = parseInstance(q) })
	if err != nil {
		return nil, 0, err
	}
	var in *instance.Instance
	rp.tr.span("gen.build", func() { in, err = gen.Build(p.g, p.z, p.level, q.Dealer, q.Receiver) })
	return in, p.level, err
}

func (rp *replayer) canonicalKey(in *instance.Instance) string {
	var k string
	rp.tr.span("instance.canonical_key", func() { k = in.CanonicalKey() })
	return k
}

// ----------------------------------------------------------- feasibility

func (rp *replayer) feasibility(body []byte) ([]byte, error) {
	var req server.FeasibilityRequest
	var err error
	rp.tr.span("server.decode", func() { err = decodeStrict(body, &req) })
	if err != nil {
		return nil, fmt.Errorf("body: %w", err)
	}
	in, level, err := rp.build(req.InstanceRequest)
	if err != nil {
		return nil, fmt.Errorf("instance: %w", err)
	}
	var listen adversary.Structure
	rp.tr.span("cliutil.parse", func() { listen, err = cliutil.ParseStructure(req.Listen) })
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	ck := rp.canonicalKey(in)
	key := fmt.Sprintf("feasibility-v3\n%s\nd=%d\nlisten=%s\n%s",
		level, req.MABudget, cliutil.FormatStructure(listen), ck)
	if b, ok := rp.cache[key]; ok {
		return b, nil
	}
	resp := server.FeasibilityResponse{Key: ck, Knowledge: level.String()}
	rp.tr.span("feasibility.verdicts", func() {
		if mv, err := feasibility.MBRBVerdictFor(in, req.MABudget); err == nil {
			resp.MBRB = &server.MBRBVerdict{N: mv.N, T: mv.T, D: mv.D, Feasible: mv.Feasible}
		}
		resp.SMT = smtVerdictOf(in, listen)
	})
	var cut core.RMTCut
	var found bool
	rp.tr.span("core.rmt_cut", func() { cut, found, err = core.FindRMTCutCtx(context.Background(), in) })
	if err != nil {
		return nil, err
	}
	if found {
		resp.PKA.Witness = witnessOf(cut.C1, cut.C2, cut.B)
	} else {
		resp.PKA.Solvable = true
	}
	if level == gen.AdHoc {
		v := &server.Verdict{}
		var zcut zcpa.ZppCut
		var zfound bool
		rp.tr.span("zcpa.zpp_cut", func() { zcut, zfound, err = zcpa.FindRMTZppCutCtx(context.Background(), in) })
		if err != nil {
			return nil, err
		}
		if zfound {
			v.Witness = witnessOf(zcut.C1, zcut.C2, zcut.B)
		} else {
			v.Solvable = true
		}
		resp.ZCPA = v
	}
	var out []byte
	rp.tr.span("server.encode", func() { out, err = marshalBody(resp) })
	if err != nil {
		return nil, err
	}
	rp.store(key, out)
	return out, nil
}

func witnessOf(c1, c2, b nodeset.Set) *server.CutWitness {
	return &server.CutWitness{C1: members(c1), C2: members(c2), B: members(b)}
}

// members is Members() with a non-nil result, so JSON renders [] not null.
func members(s nodeset.Set) []int {
	m := s.Members()
	if m == nil {
		m = []int{}
	}
	return m
}

func smtVerdictOf(in *instance.Instance, listen adversary.Structure) *server.SMTVerdict {
	fv := feasibility.SMTVerdictFor(in, listen)
	v := &server.SMTVerdict{Feasible: fv.Feasible, Listen: make([][]int, 0, listen.NumMaximal())}
	for _, l := range listen.Maximal() {
		v.Listen = append(v.Listen, members(l))
	}
	for _, p := range fv.Paths {
		v.Paths = append(v.Paths, []int(p))
	}
	if fv.DisruptionFound {
		v.DisruptionCut = members(fv.DisruptionCut)
	}
	if fv.SecrecyFound {
		v.SecrecyCut = members(fv.SecrecyCut)
		v.SecrecyListen = members(fv.SecrecyListen)
	}
	return v
}

// ------------------------------------------------------------------ runs

// normalizeRun fills a RunRequest's defaults as the server does.
func normalizeRun(r *server.RunRequest) {
	if r.Protocol == "" {
		r.Protocol = protocol.PKA
	}
	if r.Value == "" {
		r.Value = "1"
	}
	if r.Engine == "" {
		r.Engine = "lockstep"
	}
	if r.Schedule == "" {
		r.Schedule = "sync"
	}
	if r.Trials <= 0 {
		r.Trials = 1
	}
	if r.Attack == "" {
		r.Attack = "silent"
	}
	if r.Forged == "" {
		r.Forged = "forged-by-" + r.Attack
	}
}

// runTrialWorkers matches the server's per-request trial fan-out.
const runTrialWorkers = 4

func (rp *replayer) run(body []byte) ([]byte, error) {
	var req server.RunRequest
	var err error
	rp.tr.span("server.decode", func() { err = decodeStrict(body, &req) })
	if err != nil {
		return nil, fmt.Errorf("body: %w", err)
	}
	normalizeRun(&req)
	in, _, err := rp.build(req.InstanceRequest)
	if err != nil {
		return nil, fmt.Errorf("instance: %w", err)
	}
	p, ok := protocol.Get(req.Protocol)
	if !ok {
		return nil, fmt.Errorf("unknown protocol %q", req.Protocol)
	}
	eng, err := network.ParseEngine(req.Engine)
	if err != nil {
		return nil, err
	}
	strategy, ok := byzantine.Get(req.Attack)
	if !ok {
		return nil, byzantine.UnknownError(req.Attack)
	}
	corrupt := nodeset.Of(req.Corrupt...)
	ck := rp.canonicalKey(in)
	key := fmt.Sprintf("run-v1\n%s\nprotocol: %s\nvalue: %s\nengine: %s\nschedule: %s\nseed: %d\ntrials: %d\ncorrupt: %s\nattack: %s\nforged: %s\nmaxrounds: %d\ntranscript: %v\n",
		ck, req.Protocol, req.Value, req.Engine, req.Schedule, req.Seed, req.Trials,
		corrupt.Key(), req.Attack, req.Forged, req.MaxRounds, req.Transcript)
	if b, ok := rp.cache[key]; ok {
		return b, nil
	}
	trials, err := rp.runTrials(in, &req, p, eng, corrupt, strategy)
	if err != nil {
		return nil, err
	}
	resp := &server.RunResponse{
		Key:      ck,
		Protocol: req.Protocol,
		Engine:   req.Engine,
		Schedule: req.Schedule,
		Seed:     req.Seed,
		Trials:   trials,
	}
	var out []byte
	rp.tr.span("server.encode", func() { out, err = marshalBody(resp) })
	if err != nil {
		return nil, err
	}
	rp.store(key, out)
	return out, nil
}

// runTrials mirrors the server's trial loop with protocol.Run split into its
// two layers: Protocol.Assemble (with the Byzantine overlay) and network.Run.
func (rp *replayer) runTrials(in *instance.Instance, req *server.RunRequest, p protocol.Protocol, eng network.Engine, corrupt nodeset.Set, strategy byzantine.Strategy) ([]server.TrialResult, error) {
	xD := network.Value(req.Value)
	var firstErr error
	var errMu sync.Mutex
	fail := func(err error) server.TrialResult {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		return server.TrialResult{}
	}
	workers := 1
	// Allocation counts are process-wide, so the allocation pass runs
	// trials one at a time; the timed pass fans out as the server does.
	if req.Trials > 1 && rp.tr.mode != traceAllocs {
		workers = runTrialWorkers
	}
	trials := eval.ParallelMap(req.Trials, workers, func(i int) server.TrialResult {
		schedSeed := eval.TrialSeed(req.Seed, 0, i)
		opts := protocol.Options{Engine: eng, MaxRounds: req.MaxRounds}
		if eng == network.Async {
			sched, err := network.NewScheduler(req.Schedule, schedSeed)
			if err != nil {
				return fail(err)
			}
			opts.Scheduler = sched
		}
		var transcript bytes.Buffer
		var jt *network.JSONLTracer
		if req.Transcript {
			jt = network.NewJSONLTracer(&transcript)
			opts.Tracers = []network.Tracer{jt}
		}
		var procs map[int]network.Process
		var err error
		rp.tr.span("protocol.assemble", func() {
			if !corrupt.IsEmpty() {
				opts.Corrupt = strategy.Build(in, corrupt, network.Value(req.Forged))
			}
			procs, err = p.Assemble(in, xD, opts)
		})
		if err != nil {
			return fail(err)
		}
		cfg := network.Config{
			Graph:     in.G,
			Processes: procs,
			Engine:    opts.Engine,
			Scheduler: opts.Scheduler,
			MaxRounds: opts.MaxRounds,
			Tracers:   opts.Tracers,
		}
		if !p.Caps().AllDecide {
			cfg.StopEarly = func(d map[int]network.Value) bool {
				_, ok := d[in.Receiver]
				return ok
			}
		}
		var res *network.Result
		rp.tr.span("network.run", func() { res, err = network.Run(cfg) })
		if err != nil {
			return fail(err)
		}
		rp.tr.record("network.messages", float64(res.Metrics.MessagesSent))
		rp.tr.record("network.rounds", float64(res.Rounds))
		tr := server.TrialResult{Seed: schedSeed, Rounds: res.Rounds, Metrics: res.Metrics}
		if v, decided := res.DecisionOf(in.Receiver); decided {
			tr.Decided = true
			tr.Decision = string(v)
			tr.Correct = v == xD
		}
		if jt != nil && jt.Err() == nil {
			for _, line := range bytes.Split(bytes.TrimSpace(transcript.Bytes()), []byte("\n")) {
				if len(line) > 0 {
					tr.Transcript = append(tr.Transcript, json.RawMessage(line))
				}
			}
		}
		return tr
	})
	return trials, firstErr
}

// ----------------------------------------------------------------- watch

// watch replays one /v1/watch subscription: the instance line, then one
// revision per delta line, emitting an event on every verdict flip.
func (rp *replayer) watch(body []byte) ([]byte, error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	first := nextLine(sc)
	if first == nil {
		return nil, errors.New("watch: missing instance line")
	}
	var req server.InstanceRequest
	var err error
	rp.tr.span("server.decode", func() { err = decodeStrict(first, &req) })
	if err != nil {
		return nil, fmt.Errorf("instance line: %w", err)
	}
	cur, level, err := rp.build(req)
	if err != nil {
		return nil, fmt.Errorf("instance: %w", err)
	}
	key := rp.canonicalKey(cur)
	incR := core.NewIncrementalCut()
	var incZ *zcpa.IncrementalCut
	if level == gen.AdHoc {
		incZ = zcpa.NewIncrementalCut()
	}
	var out bytes.Buffer
	var prev *server.WatchEvent
	for rev := 0; ; rev++ {
		ev, b, err := rp.watchVerdict(cur, level, key, rev, incR, incZ)
		if err != nil {
			return nil, err
		}
		if prev == nil || verdictChanged(prev, ev) {
			out.Write(b)
		}
		prev = ev
		line := nextLine(sc)
		if line == nil {
			break
		}
		var d instance.Delta
		rp.tr.span("server.decode", func() { err = decodeStrict(line, &d) })
		if err != nil {
			return nil, fmt.Errorf("delta %d: %w", rev+1, err)
		}
		var next *instance.Instance
		rp.tr.span("gen.apply_delta", func() {
			if err = d.Validate(cur); err == nil {
				next, err = gen.ApplyDelta(cur, d, level)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("delta %d: %w", rev+1, err)
		}
		cur = next
		rp.tr.span("instance.chain_key", func() { key = instance.ChainKey(key, d) })
	}
	r, f := incR.Stats()
	rp.repairedR += r
	rp.freshR += f
	if incZ != nil {
		r, f := incZ.Stats()
		rp.repairedZ += r
		rp.freshZ += f
	}
	return out.Bytes(), nil
}

func (rp *replayer) watchVerdict(cur *instance.Instance, level gen.Knowledge, key string, rev int, incR *core.IncrementalCut, incZ *zcpa.IncrementalCut) (*server.WatchEvent, []byte, error) {
	ev := &server.WatchEvent{Rev: rev, Key: key, Knowledge: level.String()}
	var cut core.RMTCut
	var found bool
	var err error
	rp.tr.span("core.incremental", func() { cut, found, err = incR.CheckCtx(context.Background(), cur) })
	if err != nil {
		return nil, nil, err
	}
	if found {
		ev.PKA.Witness = witnessOf(cut.C1, cut.C2, cut.B)
	} else {
		ev.PKA.Solvable = true
	}
	if incZ != nil {
		v := &server.Verdict{}
		var zcut zcpa.ZppCut
		var zfound bool
		rp.tr.span("zcpa.incremental", func() { zcut, zfound, err = incZ.CheckCtx(context.Background(), cur) })
		if err != nil {
			return nil, nil, err
		}
		if zfound {
			v.Witness = witnessOf(zcut.C1, zcut.C2, zcut.B)
		} else {
			v.Solvable = true
		}
		ev.ZCPA = v
	}
	var b []byte
	rp.tr.span("server.encode", func() { b, err = marshalBody(ev) })
	return ev, b, err
}

// nextLine returns the next non-blank line, or nil at the end of the body.
func nextLine(sc *bufio.Scanner) []byte {
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			return line
		}
	}
	return nil
}

// verdictChanged reports a solvability flip between consecutive revisions,
// as the server's watch stream does.
func verdictChanged(prev, next *server.WatchEvent) bool {
	if prev.PKA.Solvable != next.PKA.Solvable {
		return true
	}
	if (prev.ZCPA == nil) != (next.ZCPA == nil) {
		return true
	}
	return prev.ZCPA != nil && prev.ZCPA.Solvable != next.ZCPA.Solvable
}
