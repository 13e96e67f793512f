// Package server implements rmtd's long-lived HTTP/JSON query service:
// feasibility verdicts (RMT-cut / 𝒵-pp-cut) and protocol executions for any
// registered protocol × engine × schedule × seed, over the same internal
// packages the CLI tools use.
//
// Every cached answer — a /v1/feasibility or /v1/run body, one /v1/watch
// revision — goes through one pipeline (fill):
//
//   - results are cached in a size-bounded LRU keyed by the parsed instance
//     tuple (G, 𝒵, knowledge level, D, R) plus the normalized request
//     parameters, so repeated queries — the common shape when a notebook or
//     script sweeps seeds around one topology — are served from memory,
//     byte-identically, without building the instance's views; in a fleet,
//     a miss first asks the shard that owns the tuple for its cached body;
//   - only a compute builds the instance, and it runs on a bounded worker
//     pool (eval.Pool) with queue-depth backpressure: when the queue is
//     full the daemon answers 429 instead of accumulating goroutines. The
//     per-request deadline context is plumbed into the compute itself — the
//     cut searches poll it once per candidate and multi-trial runs poll it
//     between trials — so a timed-out request answers 504 *and* frees its
//     worker slot promptly rather than leaking it to a stuck exponential
//     search. A client that disconnects early cancels its compute the same
//     way, logged as 499 and counted separately from deadline expiries. A
//     protocol precondition the request broke (protocol.CapsError) is a
//     400. Watch streams, whose status line is already spent, report the
//     same outcomes in-band.
//
// Endpoints: POST /v1/feasibility, POST /v1/run, POST /v1/watch,
// GET /v1/protocols, GET /healthz, GET /metrics (Prometheus text format).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"rmt/internal/adversary"
	"rmt/internal/byzantine"
	"rmt/internal/cliutil"
	"rmt/internal/core"
	"rmt/internal/cut"
	"rmt/internal/eval"
	"rmt/internal/feasibility"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
	"rmt/internal/zcpa"
)

// Options configures a Server. The zero value is usable: every field has a
// production default.
type Options struct {
	// Workers is the compute pool size (≤ 0 = one per logical CPU).
	Workers int
	// QueueDepth bounds admitted-but-unstarted requests; beyond it the
	// daemon sheds load with 429. Default 256.
	QueueDepth int
	// CacheSize bounds the result LRU in entries. Default 1024.
	CacheSize int
	// RequestTimeout is the per-request compute deadline. Default 30s.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies. Default 1 MiB.
	MaxBodyBytes int64
	// MaxTrials bounds RunRequest.Trials. Default 1024.
	MaxTrials int
	// MaxWatchDeltas bounds the revisions of one /v1/watch subscription.
	// Default 4096.
	MaxWatchDeltas int
	// LogWriter receives one JSON object per request (structured access
	// log). Default os.Stderr; use io.Discard to silence.
	LogWriter io.Writer

	// Peers lists every shard's base URL ("http://host:port") when this
	// server runs as one shard of a fleet, Self included. Before computing a
	// cache miss, the shard asks the instance's owning peer (consistent hash
	// over the parsed instance tuple — the same ring and key the Router
	// uses) for its cached body, so requests that leak past the router, or
	// arrive directly, still reuse the fleet's work and stay byte-identical
	// with it.
	Peers []string
	// Self is this shard's own entry in Peers; keys it owns are computed
	// locally without a peer round-trip.
	Self string
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 1024
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.MaxTrials <= 0 {
		o.MaxTrials = 1024
	}
	if o.MaxWatchDeltas <= 0 {
		o.MaxWatchDeltas = 4096
	}
	if o.LogWriter == nil {
		o.LogWriter = os.Stderr
	}
	return o
}

// Server is the rmtd HTTP handler. Create with New, serve with any
// http.Server, release the worker pool with Close.
type Server struct {
	opts    Options
	pool    *eval.Pool
	cache   *resultCache
	metrics *serverMetrics
	mux     *http.ServeMux

	// ring maps instance owner keys to owning peers; nil when the server
	// runs standalone (no Peers configured).
	ring       *hashRing
	peerClient *http.Client

	log accessLog
}

// New builds a Server with started workers.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		pool:    eval.NewPool(opts.Workers, opts.QueueDepth),
		cache:   newResultCache(opts.CacheSize),
		metrics: newServerMetrics(),
		mux:     http.NewServeMux(),
		log:     accessLog{w: opts.LogWriter},
	}
	if len(opts.Peers) > 0 {
		s.ring = newHashRing(opts.Peers)
		s.peerClient = &http.Client{Timeout: 2 * time.Second}
	}
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /v1/protocols", s.instrument("/v1/protocols", s.handleProtocols))
	s.mux.HandleFunc("POST /v1/feasibility", s.instrument("/v1/feasibility", s.handleFeasibility))
	s.mux.HandleFunc("POST /v1/run", s.instrument("/v1/run", s.handleRun))
	s.mux.HandleFunc("POST /v1/watch", s.instrument("/v1/watch", s.handleWatch))
	s.mux.HandleFunc("POST /internal/cache", s.instrument("/internal/cache", s.handleInternalCache))
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops admission and drains in-flight work — the SIGTERM half of
// graceful shutdown (the HTTP listener is shut down by the caller first).
func (s *Server) Close() { s.pool.Close() }

// CacheHitRatio exposes hits/(hits+misses) for tests and the load driver.
func (s *Server) CacheHitRatio() float64 { return s.metrics.hitRatio() }

// PeerCacheHits exposes the number of bodies this shard served out of a
// peer's cache instead of recomputing (tests and the fleet load driver).
func (s *Server) PeerCacheHits() int64 { return s.metrics.peerHits.Load() }

// instrument wraps a handler with latency/status accounting and the
// structured access log.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		d := time.Since(start)
		s.metrics.observe(endpoint, rec.code, d)
		s.log.write(r.Method, endpoint, "", rec.code, d, rec.cache)
	}
}

type statusRecorder struct {
	http.ResponseWriter
	code  int
	cache string // "hit", "peer", "miss" or "" for uncacheable endpoints
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer's Flush
// and EnableFullDuplex — the watch stream needs both.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// accessLog is the structured access log of a shard or a router: one JSON
// object per request.
type accessLog struct {
	w  io.Writer
	mu sync.Mutex
}

// write logs one request. shard (the router's target) and cache (a shard's
// cache disposition) are omitted when empty. A quiet process (io.Discard)
// skips the timestamp, the marshal and the lock.
func (l *accessLog) write(method, path, shard string, status int, d time.Duration, cache string) {
	if l.w == io.Discard {
		return
	}
	entry := struct {
		Time   string  `json:"time"`
		Method string  `json:"method"`
		Path   string  `json:"path"`
		Shard  string  `json:"shard,omitempty"`
		Status int     `json:"status"`
		Ms     float64 `json:"ms"`
		Cache  string  `json:"cache,omitempty"`
	}{time.Now().UTC().Format(time.RFC3339Nano), method, path, shard, status, float64(d.Microseconds()) / 1000, cache}
	b, err := json.Marshal(entry)
	if err != nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w.Write(append(b, '\n'))
}

// ---------------------------------------------------------------- responses

func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	b, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
	writeJSON(w, status, append(b, '\n'))
}

func marshalBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ----------------------------------------------------------- plain handlers

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, []byte("{\"status\":\"ok\"}\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.render(w, s.pool.Depth(), s.pool.Workers(), s.cache.len())
}

// ProtocolInfo describes one registered protocol to clients.
type ProtocolInfo struct {
	Name               string `json:"name"`
	NeedsFullKnowledge bool   `json:"needs_full_knowledge,omitempty"`
	AllDecide          bool   `json:"all_decide,omitempty"`
}

// ProtocolsResponse is the GET /v1/protocols body: everything a client can
// name in a RunRequest.
type ProtocolsResponse struct {
	Protocols []ProtocolInfo `json:"protocols"`
	Engines   []string       `json:"engines"`
	Schedules []string       `json:"schedules"`
	Attacks   []string       `json:"attacks"`
	Knowledge []string       `json:"knowledge"`
}

func (s *Server) handleProtocols(w http.ResponseWriter, _ *http.Request) {
	resp := ProtocolsResponse{
		Engines:   network.EngineNames(),
		Schedules: network.SchedulerNames(),
		Attacks:   byzantine.Names(),
	}
	for _, name := range protocol.Names() {
		p, _ := protocol.Get(name)
		caps := p.Caps()
		resp.Protocols = append(resp.Protocols, ProtocolInfo{
			Name:               name,
			NeedsFullKnowledge: caps.NeedsFullKnowledge,
			AllDecide:          caps.AllDecide,
		})
	}
	for _, k := range gen.Levels() {
		resp.Knowledge = append(resp.Knowledge, k.String())
	}
	body, err := marshalBody(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// --------------------------------------------------------- instance parsing

// InstanceRequest is the textual instance tuple shared by both POST
// endpoints — the same formats the CLI flags accept.
type InstanceRequest struct {
	// Graph is an edge list, e.g. "0-1 0-2 1-3 2-3".
	Graph string `json:"graph"`
	// Structure is the adversary structure, e.g. "1;2" ({1},{2}).
	// Empty means no corruption.
	Structure string `json:"structure,omitempty"`
	// Knowledge is adhoc (default), radius1..radius3, or full.
	Knowledge string `json:"knowledge,omitempty"`
	Dealer    int    `json:"dealer"`
	Receiver  int    `json:"receiver"`
}

// parsedInstance is an InstanceRequest after parsing and instance.Validate:
// the tuple (G, 𝒵, level, D, R) without views. It is everything a cache
// lookup needs; build adds the views γ and the local structures Z_v.
type parsedInstance struct {
	g                *graph.Graph
	z                adversary.Structure
	level            gen.Knowledge
	dealer, receiver int
}

// parse parses the request's edge list, structure and knowledge level and
// makes every tuple check instance.New makes, with the same errors in the
// same order — for a level's views, New's view checks cannot fail.
func (q InstanceRequest) parse() (parsedInstance, error) {
	if strings.TrimSpace(q.Graph) == "" {
		return parsedInstance{}, fmt.Errorf("graph is required")
	}
	g, err := graph.ParseEdgeList(q.Graph)
	if err != nil {
		return parsedInstance{}, err
	}
	z, err := cliutil.ParseStructure(q.Structure)
	if err != nil {
		return parsedInstance{}, err
	}
	level := gen.AdHoc
	if q.Knowledge != "" {
		if level, err = cliutil.ParseKnowledge(q.Knowledge); err != nil {
			return parsedInstance{}, err
		}
	}
	if err := instance.Validate(g, z, q.Dealer, q.Receiver); err != nil {
		return parsedInstance{}, err
	}
	return parsedInstance{g: g, z: z, level: level, dealer: q.Dealer, receiver: q.Receiver}, nil
}

// build materializes the instance: the level's views and the local
// structures.
func (p parsedInstance) build() (*instance.Instance, error) {
	return gen.Build(p.g, p.z, p.level, p.dealer, p.receiver)
}

// appendKey appends the parsed tuple's share of a result-cache key: the
// knowledge level, the terminals and instance.AppendTupleHash of (G, 𝒵).
// The level fixes γ as a function of G, so equal shares mean equal
// instance tuples (G, 𝒵, γ, D, R) at equal levels — the same requests
// that share a level and a CanonicalKey — and no view is built to find out.
func (p parsedInstance) appendKey(b []byte) []byte {
	b = append(b, p.level.String()...)
	b = append(b, "\ndealer="...)
	b = strconv.AppendInt(b, int64(p.dealer), 10)
	b = append(b, "\nreceiver="...)
	b = strconv.AppendInt(b, int64(p.receiver), 10)
	b = append(b, "\ntuple="...)
	return instance.AppendTupleHash(b, p.g, p.z)
}

// ownerKey places the instance on the fleet's hash ring. The router, the
// shards' peer fetches and watch streams all key ownership by it, so every
// spelling of a tuple — and every request parameter set on it — lands on
// one shard, and no one builds an instance to find out which.
func (p parsedInstance) ownerKey() string {
	return string(p.appendKey(make([]byte, 0, 128)))
}

// ------------------------------------------------------- pooled computation

// statusClientClosedRequest is nginx's convention for "the client went away
// before we could answer" — there is no official HTTP code for it.
const statusClientClosedRequest = 499

// errOverloaded is the pool's refusal: QueueDepth requests are already
// admitted and waiting.
var errOverloaded = errors.New("overloaded")

// run executes fn on the worker pool under the per-request deadline and
// returns its body. fn receives the deadline context, which is also
// canceled when parent — the client's request — ends; fn must poll it
// during long work so an abandoned request frees its worker slot. This is
// the daemon's one pool-submission site; failure maps its errors to a
// status.
func (s *Server) run(parent context.Context, fn func(ctx context.Context) ([]byte, error)) ([]byte, error) {
	ctx, cancel := context.WithTimeout(parent, s.opts.RequestTimeout)
	defer cancel()
	type outcome struct {
		body []byte
		err  error
	}
	done := make(chan outcome, 1)
	job := func() {
		defer func() {
			// A panicking query must not take the daemon down with it:
			// protocol and search code trusts its inputs more than a
			// network service should.
			if p := recover(); p != nil {
				done <- outcome{nil, fmt.Errorf("panic: %v", p)}
			}
		}()
		body, err := fn(ctx)
		done <- outcome{body, err}
	}
	if !s.pool.TrySubmit(job) {
		return nil, fmt.Errorf("%w: %d requests in flight", errOverloaded, s.pool.Depth())
	}
	select {
	case out := <-done:
		return out.body, out.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// failure maps a pipeline error to the reply's status and message and
// counts it. Overload is a 429 (rmtd_rejected_total). A compute context
// that ended is a 499 when the client went away (parent is done; counted in
// rmtd_client_cancels_total — it is not a compute timeout and must not skew
// that metric) and a 504 otherwise (rmtd_timeouts_total). A protocol
// precondition the request broke, such as mbrb on a network that is not
// complete, is a 400. Anything else is a 500.
func (s *Server) failure(parent context.Context, err error) (int, string) {
	switch {
	case errors.Is(err, errOverloaded):
		s.metrics.rejected.Add(1)
		return http.StatusTooManyRequests, err.Error()
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		if parent.Err() != nil {
			s.metrics.cancels.Add(1)
			return statusClientClosedRequest, "client closed the request"
		}
		s.metrics.timeouts.Add(1)
		return http.StatusGatewayTimeout, fmt.Sprintf("deadline exceeded after %v", s.opts.RequestTimeout)
	case protocol.IsCapsError(err):
		return http.StatusBadRequest, err.Error()
	}
	return http.StatusInternalServerError, err.Error()
}

// fill returns the body cached under key, and where it came from: the
// local LRU ("hit"); else the cache of the peer that owns the instance
// ("peer", see fetchFromPeer); else fn's result, computed on the pool
// and stored ("miss"). The incumbent body always wins (see
// resultCache.put), so equal keys get byte-identical bodies regardless of
// worker count, arrival order or shard.
func (s *Server) fill(ctx context.Context, key string, owner parsedInstance, fn func(ctx context.Context) ([]byte, error)) ([]byte, string, error) {
	if body, ok := s.cache.get(key); ok {
		s.metrics.cacheHits.Add(1)
		return body, "hit", nil
	}
	s.metrics.cacheMisses.Add(1)
	if body, ok := s.fetchFromPeer(ctx, key, owner); ok {
		s.cache.put(key, body)
		return body, "peer", nil
	}
	body, err := s.run(ctx, fn)
	if err != nil {
		return nil, "miss", err
	}
	s.cache.put(key, body)
	if cached, ok := s.cache.get(key); ok {
		body = cached
	}
	return body, "miss", nil
}

// serveCached answers a /v1/feasibility or /v1/run request through fill
// and logs its cache disposition. A hit is served from the parsed request
// alone; only a compute builds the instance fn runs on.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key string, p parsedInstance, fn func(ctx context.Context, in *instance.Instance) ([]byte, error)) {
	body, source, err := s.fill(r.Context(), key, p, func(ctx context.Context) ([]byte, error) {
		in, err := p.build()
		if err != nil {
			return nil, fmt.Errorf("instance: %w", err)
		}
		return fn(ctx, in)
	})
	if rec, ok := w.(*statusRecorder); ok {
		rec.cache = source
	}
	if err != nil {
		code, msg := s.failure(r.Context(), err)
		writeError(w, code, "%s", msg)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// fetchFromPeer asks the owning peer's cache for key when this server is a
// fleet shard that does not own the instance. A hit returns the owner's
// exact bytes (preserving fleet-wide byte-identity); any miss or transport
// error falls back to local compute — the peer protocol is an
// optimization, never a dependency.
func (s *Server) fetchFromPeer(ctx context.Context, key string, owner parsedInstance) ([]byte, bool) {
	if s.ring == nil {
		return nil, false
	}
	peer := s.ring.owner(owner.ownerKey())
	if peer == "" || peer == s.opts.Self {
		return nil, false
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/internal/cache", strings.NewReader(key))
	if err != nil {
		return nil, false
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := s.peerClient.Do(req)
	if err != nil {
		s.metrics.peerMisses.Add(1)
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		s.metrics.peerMisses.Add(1)
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, s.opts.MaxBodyBytes*64))
	if err != nil {
		s.metrics.peerMisses.Add(1)
		return nil, false
	}
	s.metrics.peerHits.Add(1)
	return body, true
}

// handleInternalCache is the shard-to-shard cache protocol: the request body
// is a full result-cache key, the response is the cached body verbatim (200)
// or 404 on a miss. It never computes — peers fall back to their own pool —
// so a fetch storm cannot amplify load across the fleet.
func (s *Server) handleInternalCache(w http.ResponseWriter, r *http.Request) {
	key, err := io.ReadAll(io.LimitReader(r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read key: %v", err)
		return
	}
	body, ok := s.cache.get(string(key))
	if !ok {
		writeError(w, http.StatusNotFound, "not cached")
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(io.LimitReader(r.Body, s.opts.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "body: %v", err)
		return false
	}
	return true
}

// -------------------------------------------------------------- feasibility

// CutWitness is an impossibility witness (C1, C2, B) in JSON form.
type CutWitness struct {
	C1 []int `json:"c1"`
	C2 []int `json:"c2"`
	B  []int `json:"b"`
}

// Verdict is one model's feasibility answer: solvable, or a cut witness.
type Verdict struct {
	Solvable bool        `json:"solvable"`
	Witness  *CutWitness `json:"witness,omitempty"`
}

// FeasibilityRequest is the POST /v1/feasibility body: the instance tuple
// plus the message-adversary suppression budget d for the MBRB verdict.
type FeasibilityRequest struct {
	InstanceRequest
	// MABudget is the message adversary's per-broadcast suppression budget
	// d for the MBRB bound n > 3t + 2d; default 0 (no suppression). The
	// MBRB verdict is only present for complete-graph instances, where the
	// bound is tight.
	MABudget int `json:"ma_budget,omitempty"`
	// Listen is the adversary's listening structure ℒ for the SMT verdict,
	// in the CLI structure syntax ("2;3" or "2,3;4"); empty means no
	// listening (the SMT verdict then degenerates to the disruption
	// condition alone).
	Listen string `json:"listen,omitempty"`
}

// MBRBVerdict is the signature-free reliable-broadcast answer: the bound
// n > 3t + 2d evaluated on the instance's (n, t) and the requested d.
type MBRBVerdict struct {
	N        int  `json:"n"`
	T        int  `json:"t"`
	D        int  `json:"d"`
	Feasible bool `json:"feasible"`
}

// SMTVerdict is the secure-message-transmission answer under the fully
// generalised adversary (𝒵, ℒ): Dowden's disruption and secrecy cut
// conditions, with the witness on whichever side holds — the share-routing
// path family when feasible, the violated cut when not.
type SMTVerdict struct {
	Feasible bool `json:"feasible"`
	// Listen echoes the listening structure's maximal sets as normalized.
	Listen [][]int `json:"listen"`
	// Paths is the canonical witness family the smt protocol would route
	// shares over; present exactly when feasible.
	Paths [][]int `json:"paths,omitempty"`
	// DisruptionCut is the corruption ground when it alone disconnects the
	// dealer from the receiver.
	DisruptionCut []int `json:"disruption_cut,omitempty"`
	// SecrecyCut and SecrecyListen witness a failed secrecy condition: the
	// ground ∪ listening-set union that separates the terminals, and the
	// maximal listening set responsible.
	SecrecyCut    []int `json:"secrecy_cut,omitempty"`
	SecrecyListen []int `json:"secrecy_listen,omitempty"`
}

// FeasibilityResponse is the POST /v1/feasibility body. PKA is the partial
// knowledge characterization (Definition 3 RMT-cut); ZCPA is the ad hoc one
// (Definition 7 𝒵-pp cut), present only for adhoc-knowledge instances; MBRB
// is the message-adversary broadcast bound n > 3t + 2d, present only for
// complete-graph instances.
type FeasibilityResponse struct {
	// Key is the instance's canonical content hash — equal keys mean equal
	// (G, 𝒵, γ, D, R) tuples, however the request spelled them.
	Key       string       `json:"key"`
	Knowledge string       `json:"knowledge"`
	PKA       Verdict      `json:"pka"`
	ZCPA      *Verdict     `json:"zcpa,omitempty"`
	MBRB      *MBRBVerdict `json:"mbrb,omitempty"`
	SMT       *SMTVerdict  `json:"smt,omitempty"`
}

func (s *Server) handleFeasibility(w http.ResponseWriter, r *http.Request) {
	var req FeasibilityRequest
	if !s.decode(w, r, &req) {
		return
	}
	p, err := req.parse()
	if err != nil {
		writeError(w, http.StatusBadRequest, "instance: %v", err)
		return
	}
	if req.MABudget < 0 {
		writeError(w, http.StatusBadRequest, "ma_budget: must be >= 0")
		return
	}
	listen, err := cliutil.ParseStructure(req.Listen)
	if err != nil {
		writeError(w, http.StatusBadRequest, "listen: %v", err)
		return
	}
	s.serveCached(w, r, feasibilityKey(p, req.MABudget, listen), p, func(ctx context.Context, in *instance.Instance) ([]byte, error) {
		resp := FeasibilityResponse{Key: in.CanonicalKey(), Knowledge: p.level.String()}
		if mv, err := feasibility.MBRBVerdictFor(in, req.MABudget); err == nil {
			resp.MBRB = &MBRBVerdict{N: mv.N, T: mv.T, D: mv.D, Feasible: mv.Feasible}
		}
		resp.SMT = smtVerdictOf(in, listen)
		w, found, _, err := cut.Search(ctx, in, core.Def3, 0)
		if err != nil {
			return nil, err
		}
		resp.PKA = cutVerdict(w, found)
		if p.level == gen.AdHoc {
			w, found, _, err := cut.Search(ctx, in, zcpa.Def7, 0)
			if err != nil {
				return nil, err
			}
			v := cutVerdict(w, found)
			resp.ZCPA = &v
		}
		return marshalBody(resp)
	})
}

// feasibilityKey is the /v1/feasibility result-cache key: the parsed tuple
// plus the two request parameters the body depends on, the suppression
// budget d (MBRB verdict) and the normalized listening structure (SMT
// verdict). The level is part of it twice over — it fixes γ, and it labels
// the body ("knowledge", the adhoc-only ZCPA verdict) even where two
// levels' views coincide, as the radius-1 and ad hoc views do on
// triangle-free graphs. The prefix is bumped whenever the layout changes,
// which retires every older entry.
func feasibilityKey(p parsedInstance, d int, listen adversary.Structure) string {
	b := make([]byte, 0, 192)
	b = append(b, "feasibility-v4\n"...)
	b = p.appendKey(b)
	b = append(b, "\nd="...)
	b = strconv.AppendInt(b, int64(d), 10)
	b = append(b, "\nlisten="...)
	b = append(b, cliutil.FormatStructure(listen)...)
	return string(b)
}

// cutVerdict renders a cut search's outcome: solvable when no witness
// exists, else the witness.
func cutVerdict(w cut.Witness, found bool) Verdict {
	if !found {
		return Verdict{Solvable: true}
	}
	return Verdict{Witness: &CutWitness{C1: members(w.C1), C2: members(w.C2), B: members(w.B)}}
}

// smtVerdictOf evaluates the Dowden cut conditions under the requested
// listening structure and flattens the witnesses for JSON.
func smtVerdictOf(in *instance.Instance, listen adversary.Structure) *SMTVerdict {
	fv := feasibility.SMTVerdictFor(in, listen)
	v := &SMTVerdict{Feasible: fv.Feasible, Listen: make([][]int, 0, listen.NumMaximal())}
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

// members is Members() with a non-nil result, so JSON renders [] not null.
func members(s nodeset.Set) []int {
	m := s.Members()
	if m == nil {
		m = []int{}
	}
	return m
}

// --------------------------------------------------------------------- runs

// RunRequest asks for Trials executions of a registered protocol on the
// instance, each with a deterministically derived schedule seed.
type RunRequest struct {
	InstanceRequest
	// Protocol is a registry name (GET /v1/protocols); default "pka".
	Protocol string `json:"protocol,omitempty"`
	// Value is the dealer value x_D; default "1".
	Value string `json:"value,omitempty"`
	// Engine is lockstep (default) or async; any other name is a 400
	// "unknown engine".
	Engine string `json:"engine,omitempty"`
	// Schedule names the async delivery policy; default "sync". Requires
	// the async engine for any other value.
	Schedule string `json:"schedule,omitempty"`
	// Seed is the master seed; trial i runs with
	// eval.TrialSeed(Seed, 0, i), reported per trial for reproduction.
	Seed int64 `json:"seed,omitempty"`
	// Trials is the number of executions; default 1.
	Trials int `json:"trials,omitempty"`
	// Corrupt lists the corrupted nodes (must be admissible under the
	// structure); empty means an all-honest run.
	Corrupt []int `json:"corrupt,omitempty"`
	// Attack is the Byzantine strategy for the corrupted nodes; default
	// "silent".
	Attack string `json:"attack,omitempty"`
	// Forged is the attacker's preferred wrong value; default
	// "forged-by-<attack>".
	Forged string `json:"forged,omitempty"`
	// MaxRounds bounds each execution; 0 = engine default (2·|V|+2).
	MaxRounds int `json:"max_rounds,omitempty"`
	// Transcript embeds each trial's event stream (JSONL tracer events) in
	// the response.
	Transcript bool `json:"transcript,omitempty"`
}

// TrialResult is one execution's outcome.
type TrialResult struct {
	// Seed is the derived schedule seed; rmtsim -seed reproduces the trial.
	Seed     int64  `json:"seed"`
	Decided  bool   `json:"decided"`
	Decision string `json:"decision,omitempty"`
	// Correct reports Decision == the dealer value (safety).
	Correct bool            `json:"correct"`
	Rounds  int             `json:"rounds"`
	Metrics network.Metrics `json:"metrics"`
	// Transcript holds the run's event stream when requested.
	Transcript []json.RawMessage `json:"transcript,omitempty"`
}

// RunResponse is the POST /v1/run body.
type RunResponse struct {
	Key      string        `json:"key"`
	Protocol string        `json:"protocol"`
	Engine   string        `json:"engine"`
	Schedule string        `json:"schedule"`
	Seed     int64         `json:"seed"`
	Trials   []TrialResult `json:"trials"`
}

func (r *RunRequest) normalize() {
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

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !s.decode(w, r, &req) {
		return
	}
	req.normalize()
	p, err := req.parse()
	if err != nil {
		writeError(w, http.StatusBadRequest, "instance: %v", err)
		return
	}

	// Validate everything on the request goroutine so bad requests are
	// rejected in microseconds without consuming a pool slot.
	proto, ok := protocol.Get(req.Protocol)
	if !ok {
		writeError(w, http.StatusBadRequest, "unknown protocol %q (see /v1/protocols)", req.Protocol)
		return
	}
	if proto.Caps().NeedsFullKnowledge && p.level != gen.FullKnowledge {
		writeError(w, http.StatusBadRequest, "protocol %q requires \"knowledge\": \"full\"", req.Protocol)
		return
	}
	eng, err := network.ParseEngine(req.Engine)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if _, err := network.NewScheduler(req.Schedule, 0); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if eng != network.Async && req.Schedule != "sync" {
		writeError(w, http.StatusBadRequest, "schedule %q requires \"engine\": \"async\"", req.Schedule)
		return
	}
	if req.Trials > s.opts.MaxTrials {
		writeError(w, http.StatusBadRequest, "trials %d exceeds the limit %d", req.Trials, s.opts.MaxTrials)
		return
	}
	if req.MaxRounds < 0 {
		writeError(w, http.StatusBadRequest, "max_rounds must be ≥ 0")
		return
	}
	// Node sets are dense bitsets: bound client IDs as the instance parsers
	// do before one is allocated.
	for _, id := range req.Corrupt {
		if id < 0 || id > cliutil.MaxNodeID {
			writeError(w, http.StatusBadRequest, "corrupt: node %d is outside [0, %d]", id, cliutil.MaxNodeID)
			return
		}
	}
	corrupt := nodeset.Of(req.Corrupt...)
	if !p.z.Contains(corrupt) {
		writeError(w, http.StatusBadRequest, "corruption set %v is not admissible under %v", corrupt, p.z)
		return
	}
	strategy, ok := byzantine.Get(req.Attack)
	if !ok {
		writeError(w, http.StatusBadRequest, "%v", byzantine.UnknownError(req.Attack))
		return
	}

	s.serveCached(w, r, runKey(p, &req, corrupt), p, func(ctx context.Context, in *instance.Instance) ([]byte, error) {
		resp, err := s.runTrials(ctx, in, &req, eng, corrupt, strategy)
		if err != nil {
			return nil, err
		}
		return marshalBody(resp)
	})
}

// runKey is the /v1/run result-cache key: the parsed tuple plus every
// normalized run parameter the response depends on. Free-text fields are
// quoted, so a value or forged string that contains a line break cannot
// spell another request's key.
func runKey(p parsedInstance, req *RunRequest, corrupt nodeset.Set) string {
	b := make([]byte, 0, 320)
	b = append(b, "run-v2\n"...)
	b = p.appendKey(b)
	b = fmt.Appendf(b, "\nprotocol: %q\nvalue: %q\nengine: %q\nschedule: %q\nseed: %d\ntrials: %d\ncorrupt: %v\nattack: %q\nforged: %q\nmaxrounds: %d\ntranscript: %v\n",
		req.Protocol, req.Value, req.Engine, req.Schedule, req.Seed, req.Trials,
		corrupt, req.Attack, req.Forged, req.MaxRounds, req.Transcript)
	return string(b)
}

// runTrialWorkers bounds one request's internal fan-out so a large Trials
// value cannot monopolize the host on top of the pool's own parallelism.
const runTrialWorkers = 4

func (s *Server) runTrials(ctx context.Context, in *instance.Instance, req *RunRequest, eng network.Engine, corrupt nodeset.Set, strategy byzantine.Strategy) (*RunResponse, error) {
	xD := network.Value(req.Value)
	var firstErr error
	var errMu sync.Mutex
	workers := 1
	if req.Trials > 1 {
		workers = runTrialWorkers
	}
	trials := eval.ParallelMap(req.Trials, workers, func(i int) TrialResult {
		// Each trial is bounded by MaxRounds, so polling the deadline
		// between trials is enough to keep abandoned requests from holding
		// a worker through a long multi-trial sweep.
		if err := ctx.Err(); err != nil {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
			return TrialResult{}
		}
		schedSeed := eval.TrialSeed(req.Seed, 0, i)
		opts := protocol.Options{Engine: eng, MaxRounds: req.MaxRounds}
		if eng == network.Async {
			sched, err := network.NewScheduler(req.Schedule, schedSeed)
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				return TrialResult{}
			}
			opts.Scheduler = sched
		}
		if !corrupt.IsEmpty() {
			opts.Corrupt = strategy.Build(in, corrupt, network.Value(req.Forged))
		}
		var transcript bytes.Buffer
		var jt *network.JSONLTracer
		if req.Transcript {
			jt = network.NewJSONLTracer(&transcript)
			opts.Tracers = []network.Tracer{jt}
		}
		res, err := protocol.RunByName(req.Protocol, in, xD, opts)
		if err != nil {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
			return TrialResult{}
		}
		tr := TrialResult{Seed: schedSeed, Rounds: res.Rounds, Metrics: res.Metrics}
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
	if firstErr != nil {
		return nil, firstErr
	}
	return &RunResponse{
		Key:      in.CanonicalKey(),
		Protocol: req.Protocol,
		Engine:   req.Engine,
		Schedule: req.Schedule,
		Seed:     req.Seed,
		Trials:   trials,
	}, nil
}
