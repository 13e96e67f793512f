package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
)

// The reference server is rmtdbench itself, started again as a child
// process with -reference. Its handler does a fixed amount of work built
// from the standard library only (JSON decoding, maps, sorting, SHA-256,
// JSON encoding), so its speed is the host's and never the program's. The
// measured phase drives rmtd and the reference server in turn, and the
// end-to-end metrics divide each rmtd statistic by the same statistic of
// the reference taken in the same pair of slices: a host that slows down for a
// minute slows both alike, and the quotient stays put.

const (
	pathRef = "/ref"
	// refStream, with seed 0, draws the reference requests. They do not
	// depend on the run's seed or workload.
	refStream = 200
	refOps    = 64
)

// refRequest is one reference request: an undirected graph.
type refRequest struct {
	N     int      `json:"n"`
	Edges [][2]int `json:"edges"`
}

type refReply struct {
	Diameter int    `json:"diameter"`
	Digest   string `json:"digest"`
}

// refWork is the reference handler's work: decode the graph, run a
// breadth-first search from every node, and hash each node's sorted
// distance row.
func refWork(body []byte) ([]byte, error) {
	var req refRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	adj := make(map[int][]int, req.N)
	for _, e := range req.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	h := sha256.New()
	diameter := 0
	for s := 0; s < req.N; s++ {
		dist := map[int]int{s: 0}
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if _, seen := dist[v]; !seen {
					dist[v] = dist[u] + 1
					diameter = max(diameter, dist[v])
					queue = append(queue, v)
				}
			}
		}
		row := make([]string, 0, len(dist))
		for v, d := range dist {
			row = append(row, fmt.Sprintf("%d:%d", v, d))
		}
		sort.Strings(row)
		fmt.Fprintf(h, "%d|%s\n", s, strings.Join(row, ","))
	}
	return json.Marshal(refReply{diameter, hex.EncodeToString(h.Sum(nil))})
}

// refWorkload returns the reference ops with their expected replies: graphs
// whose sizes cycle through sizes, each give or take two nodes.
func refWorkload(sizes []int) ([]op, error) {
	r := rng(0, refStream)
	ops := make([]op, refOps)
	for i := range ops {
		req := refRequest{N: sizes[i%len(sizes)] - 2 + r.Intn(5)}
		for u := 0; u < req.N; u++ {
			for v := u + 1; v < req.N; v++ {
				if r.Float64() < 0.15 {
					req.Edges = append(req.Edges, [2]int{u, v})
				}
			}
		}
		body := mustJSON(req)
		want, err := refWork(body)
		if err != nil {
			return nil, err
		}
		ops[i] = op{path: pathRef, body: body, want: want}
	}
	return ops, nil
}

// serveReference runs the reference server on a loopback ephemeral port
// and announces it on stderr the way rmtd does, until it is signalled.
func serveReference() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {})
	mux.HandleFunc("POST "+pathRef, func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err == nil {
			body, err = refWork(body)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})
	fmt.Fprintf(os.Stderr, "listening on %s\n", ln.Addr())
	return http.Serve(ln, mux)
}
