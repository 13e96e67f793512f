package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"rmt/internal/cliutil"
	"rmt/internal/feasibility"
	"rmt/internal/gen"
)

// fixtureBody renders one feasibility fixture at a knowledge level as a
// POST /v1/feasibility body.
func fixtureBody(f feasibility.Fixture, level gen.Knowledge) []byte {
	b, err := json.Marshal(FeasibilityRequest{InstanceRequest: InstanceRequest{
		Graph:     f.Edges,
		Structure: cliutil.FormatStructure(f.Z),
		Knowledge: level.String(),
		Dealer:    f.Dealer,
		Receiver:  f.Receiver,
	}})
	if err != nil {
		panic(err)
	}
	return b
}

// benchBodies is the in-process request mix: every feasibility fixture at
// the ad hoc and radius-2 levels — small instances whose cut search is
// cheap, so a miss measures the whole request path rather than one search.
func benchBodies() [][]byte {
	var out [][]byte
	for _, level := range []gen.Knowledge{gen.AdHoc, gen.Radius2} {
		for _, f := range feasibility.All() {
			out = append(out, fixtureBody(f, level))
		}
	}
	return out
}

// serveFeasibility runs one body through ServeHTTP in process and fails the
// benchmark or test on any non-200 reply.
func serveFeasibility(tb testing.TB, s *Server, body []byte) {
	req := httptest.NewRequest(http.MethodPost, "/v1/feasibility", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
}

// warmHitServer returns a quiet server whose cache already holds every body.
func warmHitServer(tb testing.TB, bodies [][]byte) *Server {
	s := New(Options{Workers: 1, LogWriter: io.Discard})
	tb.Cleanup(s.Close)
	for _, body := range bodies {
		serveFeasibility(tb, s, body)
	}
	return s
}

// BenchmarkFeasibilityHit is the request layer's repeated-query row: a warm
// /v1/feasibility cache hit through ServeHTTP, cycling over benchBodies.
func BenchmarkFeasibilityHit(b *testing.B) {
	bodies := benchBodies()
	s := warmHitServer(b, bodies)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveFeasibility(b, s, bodies[i%len(bodies)])
	}
}

// BenchmarkFeasibilityMiss is the same mix through a one-entry cache, so
// every request misses: decode, key, instance build, both cut searches and
// encode.
func BenchmarkFeasibilityMiss(b *testing.B) {
	bodies := benchBodies()
	s := New(Options{Workers: 1, CacheSize: 1, LogWriter: io.Discard})
	b.Cleanup(s.Close)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveFeasibility(b, s, bodies[i%len(bodies)])
	}
}

// feasibilityHitAllocBudget bounds a warm /v1/feasibility hit, request and
// recorder included. A hit allocates ~80 times: decode, parse, the tuple
// key and the reply. Building the instance (views, local structures) or
// rendering its canonical key on a hit costs hundreds more, which is what
// the budget is there to catch.
const feasibilityHitAllocBudget = 150

func TestFeasibilityHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	bodies := benchBodies()
	s := warmHitServer(t, bodies)
	i := 0
	avg := testing.AllocsPerRun(len(bodies)*4, func() {
		serveFeasibility(t, s, bodies[i%len(bodies)])
		i++
	})
	if avg > feasibilityHitAllocBudget {
		t.Errorf("a warm feasibility hit allocates %.1f allocs/op, budget %d — the hit path is building instances again", avg, feasibilityHitAllocBudget)
	}
}
