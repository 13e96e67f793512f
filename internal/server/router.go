package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// RouterOptions configures a fleet Router. The zero value of every field but
// Shards is usable.
type RouterOptions struct {
	// Shards lists the shard base URLs ("http://host:port"). Every shard must
	// be configured with the same list as its Peers for the fleet-wide
	// ownership ring to agree.
	Shards []string
	// MaxBodyBytes bounds request bodies. Default 1 MiB (the shard default).
	MaxBodyBytes int64
	// LogWriter receives one JSON object per routed request. Default
	// os.Stderr; use io.Discard to silence.
	LogWriter io.Writer
	// ShardTimeout bounds one routed query end to end. It must exceed the
	// shards' compute deadline (Options.RequestTimeout, default 30s) so
	// the shard's own 504 arrives first and the router's timeout only
	// fires for a shard that is stalled, not merely slow. Default 35s.
	// Watch streams are exempt: they are long-lived by design and are
	// forwarded on a client without an overall deadline.
	ShardTimeout time.Duration
}

// Router is the fleet front door: a stateless HTTP handler that forwards
// each query to the shard owning its instance (consistent hash over the
// parsed instance tuple — level, D, R and the hash of (G, 𝒵), see
// parsedInstance.ownerKey — the same ring and key every shard builds from
// its Peers list). Routing by the parsed tuple — not by raw request bytes —
// means every spelling of the same instance lands on the same shard's LRU,
// so the fleet caches each distinct instance exactly once, and the router
// never builds an instance to route it.
//
// The router holds no cache and no worker pool; shard replies are relayed
// verbatim, preserving the shards' byte-identity guarantee end to end.
type Router struct {
	opts RouterOptions
	ring *hashRing
	// client answers the unary query endpoints under ShardTimeout;
	// streamClient forwards long-lived watch subscriptions and has no
	// overall deadline (both share one transport and its pool).
	client       *http.Client
	streamClient *http.Client
	mux          *http.ServeMux
	start        time.Time

	mu       sync.Mutex
	forwards map[string]*atomic.Int64 // shard → requests forwarded

	badRequests atomic.Int64 // rejected before routing (bad body/instance)
	shardErrors atomic.Int64 // transport failures talking to a shard
	timeouts    atomic.Int64 // 504s: shard exceeded ShardTimeout

	log accessLog
}

// NewRouter builds a Router over the given shards.
func NewRouter(opts RouterOptions) (*Router, error) {
	if len(opts.Shards) == 0 {
		return nil, fmt.Errorf("router: at least one shard is required")
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 1 << 20
	}
	if opts.LogWriter == nil {
		opts.LogWriter = os.Stderr
	}
	if opts.ShardTimeout <= 0 {
		opts.ShardTimeout = 35 * time.Second
	}
	transport := &http.Transport{MaxIdleConnsPerHost: 64}
	rt := &Router{
		opts:         opts,
		ring:         newHashRing(opts.Shards),
		client:       &http.Client{Transport: transport, Timeout: opts.ShardTimeout},
		streamClient: &http.Client{Transport: transport},
		mux:          http.NewServeMux(),
		start:        time.Now(),
		forwards:     make(map[string]*atomic.Int64, len(opts.Shards)),
		log:          accessLog{w: opts.LogWriter},
	}
	for _, s := range opts.Shards {
		rt.forwards[s] = &atomic.Int64{}
	}
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /v1/protocols", rt.handleProtocols)
	rt.mux.HandleFunc("POST /v1/feasibility", rt.handleQuery)
	rt.mux.HandleFunc("POST /v1/run", rt.handleQuery)
	rt.mux.HandleFunc("POST /v1/watch", rt.handleWatch)
	return rt, nil
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Forwards returns per-shard forwarded-request counts (tests and the fleet
// load driver use it to check the ring actually spreads the keyspace).
func (rt *Router) Forwards() map[string]int64 {
	out := make(map[string]int64, len(rt.forwards))
	for s, c := range rt.forwards {
		out[s] = c.Load()
	}
	return out
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, []byte("{\"status\":\"ok\",\"role\":\"router\"}\n"))
}

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# TYPE rmtd_router_uptime_seconds gauge\nrmtd_router_uptime_seconds %.3f\n", time.Since(rt.start).Seconds())
	fmt.Fprintf(w, "# TYPE rmtd_router_shards gauge\nrmtd_router_shards %d\n", len(rt.opts.Shards))
	fmt.Fprintf(w, "# TYPE rmtd_router_bad_requests_total counter\nrmtd_router_bad_requests_total %d\n", rt.badRequests.Load())
	fmt.Fprintf(w, "# TYPE rmtd_router_shard_errors_total counter\nrmtd_router_shard_errors_total %d\n", rt.shardErrors.Load())
	fmt.Fprintf(w, "# TYPE rmtd_router_timeouts_total counter\nrmtd_router_timeouts_total %d\n", rt.timeouts.Load())
	shards := append([]string(nil), rt.opts.Shards...)
	sort.Strings(shards)
	fmt.Fprintf(w, "# TYPE rmtd_router_forwards_total counter\n")
	for _, s := range shards {
		fmt.Fprintf(w, "rmtd_router_forwards_total{shard=%q} %d\n", s, rt.forwards[s].Load())
	}
}

// handleProtocols serves the registry inventory from a fixed shard — every
// shard runs the same binary, so any one's answer is the fleet's answer.
func (rt *Router) handleProtocols(w http.ResponseWriter, r *http.Request) {
	rt.relay(w, r, rt.ring.owner("/v1/protocols"), nil, false)
}

// handleQuery routes POST /v1/feasibility and /v1/run: it decodes just the
// instance tuple from the body (leniently — run-specific fields pass
// through untouched for the shard to validate), parses it for its owner
// key, and relays the original bytes to the owning shard.
func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, rt.opts.MaxBodyBytes))
	if err != nil {
		rt.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, "body: %v", err)
		return
	}
	var req InstanceRequest
	if err := json.Unmarshal(body, &req); err != nil {
		rt.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, "body: %v", err)
		return
	}
	p, err := req.parse()
	if err != nil {
		rt.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, "instance: %v", err)
		return
	}
	rt.relay(w, r, rt.ring.owner(p.ownerKey()), bytes.NewReader(body), false)
}

// handleWatch routes POST /v1/watch. Unlike handleQuery it cannot slurp the
// body — the body IS the subscription, a possibly-unbounded delta stream —
// so it reads exactly the first line (the base instance), parses it for its
// owner key, and splices the consumed bytes back in front of the remainder
// for the shard. The whole stream goes to the *base* instance's owner,
// which is what keeps every chain revision's cache entry on one shard.
func (rt *Router) handleWatch(w http.ResponseWriter, r *http.Request) {
	// The client may interleave deltas with our streamed verdicts; allow
	// reading the request body after response bytes have been written.
	http.NewResponseController(w).EnableFullDuplex()

	br := bufio.NewReader(r.Body)
	line, err := readLimitedLine(br, rt.opts.MaxBodyBytes)
	if err != nil {
		rt.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, "watch: instance line: %v", err)
		return
	}
	var req InstanceRequest
	if err := json.Unmarshal(line, &req); err != nil {
		rt.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, "instance line: %v", err)
		return
	}
	p, err := req.parse()
	if err != nil {
		rt.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, "instance: %v", err)
		return
	}
	rt.relay(w, r, rt.ring.owner(p.ownerKey()), io.MultiReader(bytes.NewReader(line), br), true)
}

// relay forwards r to shard — a GET when body is nil, else a POST of body —
// and copies the shard's status, Content-Type and body back verbatim. A
// query rides client, bounded by ShardTimeout. A stream (a watch
// subscription) rides streamClient, which has no overall deadline, and
// every chunk of the shard's reply is flushed through as it arrives.
func (rt *Router) relay(w http.ResponseWriter, r *http.Request, shard string, body io.Reader, stream bool) {
	start := time.Now()
	method, client, ctype := http.MethodGet, rt.client, "application/json"
	if body != nil {
		method = http.MethodPost
	}
	if stream {
		client, ctype = rt.streamClient, "application/x-ndjson"
	}
	req, err := http.NewRequestWithContext(r.Context(), method, shard+r.URL.Path, body)
	if err != nil {
		rt.shardErrors.Add(1)
		writeError(w, http.StatusBadGateway, "shard %s: %v", shard, err)
		return
	}
	if body != nil {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := client.Do(req)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			rt.timeouts.Add(1)
			writeError(w, http.StatusGatewayTimeout, "shard %s: timed out after %s", shard, rt.opts.ShardTimeout)
			rt.log.write(r.Method, r.URL.Path, shard, http.StatusGatewayTimeout, time.Since(start), "")
			return
		}
		rt.shardErrors.Add(1)
		writeError(w, http.StatusBadGateway, "shard %s: %v", shard, err)
		return
	}
	defer resp.Body.Close()
	rt.forwards[shard].Add(1)
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	dst := io.Writer(w)
	if stream {
		dst = flushWriter{w, http.NewResponseController(w)}
	}
	io.Copy(dst, resp.Body)
	rt.log.write(r.Method, r.URL.Path, shard, resp.StatusCode, time.Since(start), "")
}

// flushWriter flushes every write through to the client, so a relayed watch
// event is not held in a buffer.
type flushWriter struct {
	w  io.Writer
	rc *http.ResponseController
}

func (f flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	f.rc.Flush()
	return n, err
}

// readLimitedLine reads one newline-terminated line (newline included, so
// the bytes splice back verbatim), erroring past limit instead of buffering
// an unbounded first line.
func readLimitedLine(br *bufio.Reader, limit int64) ([]byte, error) {
	line := make([]byte, 0, 256)
	for int64(len(line)) < limit {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF && len(line) > 0 {
				return line, nil
			}
			return nil, err
		}
		line = append(line, b)
		if b == '\n' {
			return line, nil
		}
	}
	return nil, fmt.Errorf("line exceeds %d bytes", limit)
}
