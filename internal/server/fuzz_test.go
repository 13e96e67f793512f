package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"rmt/internal/adversary"
	"rmt/internal/cliutil"
	"rmt/internal/feasibility"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
)

// FuzzFeasibilityRequestKey fuzzes the boundary between a request body and
// its result-cache key. For every body that decodes:
//
//   - parse fails exactly when building the instance the old way — parse
//     every field, then gen.Build — fails, with the same error text, so a
//     hit path that never builds answers the same 400s;
//   - when it succeeds, a seeded re-spelling of the request (permuted and
//     endpoint-flipped edges, permuted structure and listening sets and
//     members plus a dominated set, a knowledge alias) gets the same key,
//     and its instance the same CanonicalKey.
//
// Run it with:
//
//	go test ./internal/server/ -run=^$ -fuzz=FuzzFeasibilityRequestKey -fuzztime=10s
func FuzzFeasibilityRequestKey(f *testing.F) {
	for _, level := range gen.Levels() {
		for _, fx := range feasibility.All() {
			f.Add(fixtureBody(fx, level), int64(level))
		}
	}
	for i, group := range respellings {
		for _, body := range group {
			f.Add([]byte(body), int64(i))
		}
	}
	f.Add([]byte(`{"graph":"0-1 1-2","structure":"1,7","dealer":0,"receiver":2}`), int64(1))
	f.Add([]byte(`{"graph":"0-1 1-2","structure":"2","dealer":0,"receiver":2,"listen":"x"}`), int64(2))
	f.Add([]byte(`{"graph":"0-1 2","structure":"1","knowledge":"full","dealer":0,"receiver":2}`), int64(3))
	f.Fuzz(func(t *testing.T, body []byte, seed int64) {
		var req FeasibilityRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		// Node sets are dense bitsets: keep the IDs, and so the memory of
		// every view, small.
		if g, err := graph.ParseEdgeList(req.Graph); err == nil && g.MaxID() > 256 {
			return
		}
		p, perr := req.parse()
		in, berr := buildFirst(req.InstanceRequest)
		if (perr == nil) != (berr == nil) || perr != nil && perr.Error() != berr.Error() {
			t.Fatalf("parse error %v, build error %v", perr, berr)
		}
		if perr != nil {
			return
		}
		listen, err := cliutil.ParseStructure(req.Listen)
		if err != nil {
			return
		}
		r := rand.New(rand.NewSource(seed))
		re := req
		re.Graph = respellGraph(r, p.g)
		re.Structure = respellStructure(r, p.z)
		re.Knowledge = knowledgeAlias(r, p.level)
		re.Listen = respellStructure(r, listen)
		q, err := re.parse()
		if err != nil {
			t.Fatalf("re-spelling %+v of %+v: %v", re.InstanceRequest, req.InstanceRequest, err)
		}
		relisten, err := cliutil.ParseStructure(re.Listen)
		if err != nil {
			t.Fatalf("re-spelled listen %q: %v", re.Listen, err)
		}
		if a, b := feasibilityKey(p, req.MABudget, listen), feasibilityKey(q, re.MABudget, relisten); a != b {
			t.Fatalf("re-spelling %+v of %+v changed the key:\n%q\n%q", re, req, a, b)
		}
		rin, err := q.build()
		if err != nil {
			t.Fatal(err)
		}
		if rin.CanonicalKey() != in.CanonicalKey() {
			t.Fatalf("re-spelling %+v of %+v changed the canonical key", re, req)
		}
	})
}

// buildFirst is the request pipeline before parse existed: parse every
// field, then let gen.Build (instance.New) check the tuple.
func buildFirst(q InstanceRequest) (*instance.Instance, error) {
	if strings.TrimSpace(q.Graph) == "" {
		return nil, fmt.Errorf("graph is required")
	}
	g, err := graph.ParseEdgeList(q.Graph)
	if err != nil {
		return nil, err
	}
	z, err := cliutil.ParseStructure(q.Structure)
	if err != nil {
		return nil, err
	}
	level := gen.AdHoc
	if q.Knowledge != "" {
		if level, err = cliutil.ParseKnowledge(q.Knowledge); err != nil {
			return nil, err
		}
	}
	return gen.Build(g, z, level, q.Dealer, q.Receiver)
}

var separators = []string{" ", ",", ";", "\n", "\t", " , "}

// respellGraph writes g's edges in a random order with random endpoint
// order and separators, then its isolated nodes.
func respellGraph(r *rand.Rand, g *graph.Graph) string {
	var parts []string
	for _, e := range g.Edges() {
		u, v := e[0], e[1]
		if r.Intn(2) == 0 {
			u, v = v, u
		}
		parts = append(parts, fmt.Sprintf("%d-%d", u, v))
	}
	g.Nodes().ForEach(func(v int) bool {
		if g.Degree(v) == 0 {
			parts = append(parts, strconv.Itoa(v))
		}
		return true
	})
	r.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	var b strings.Builder
	for i, part := range parts {
		if i > 0 {
			b.WriteString(separators[r.Intn(len(separators))])
		}
		b.WriteString(part)
	}
	return b.String()
}

// respellStructure writes z's maximal sets in a random order with shuffled
// members, sometimes adding a dominated subset of one of them.
func respellStructure(r *rand.Rand, z adversary.Structure) string {
	var sets []string
	for _, m := range z.Maximal() {
		members := m.Members()
		r.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		ids := make([]string, len(members))
		for i, v := range members {
			ids[i] = strconv.Itoa(v)
		}
		sets = append(sets, strings.Join(ids, ","))
		if len(ids) > 1 && r.Intn(2) == 0 {
			sets = append(sets, ids[r.Intn(len(ids))])
		}
	}
	r.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
	return strings.Join(sets, ";")
}

// knowledgeAlias picks one of the spellings ParseKnowledge maps to level.
func knowledgeAlias(r *rand.Rand, level gen.Knowledge) string {
	aliases := map[gen.Knowledge][]string{
		gen.AdHoc:         {"", "adhoc", "ad-hoc", " AdHoc "},
		gen.Radius1:       {"radius1", "r1", "R1"},
		gen.Radius2:       {"radius2", "r2", "Radius2"},
		gen.Radius3:       {"radius3", "r3", " r3"},
		gen.FullKnowledge: {"full", "FULL"},
	}[level]
	return aliases[r.Intn(len(aliases))]
}

// FuzzWatchRequest sends arbitrary ndjson bodies to an in-process
// /v1/watch. No body may panic the handler, and every reply is either a
// 4xx carrying a JSON error or a 200 stream of WatchEvent lines, with
// increasing revisions, that ends with at most one in-band error line.
// Bodies naming a node ID above 15 are skipped, so the cut searches stay
// small; a search that still runs long ends in an in-band deadline line.
//
// Run it with:
//
//	go test ./internal/server/ -run=^$ -fuzz=FuzzWatchRequest -fuzztime=10s
func FuzzWatchRequest(f *testing.F) {
	for _, body := range []string{
		watchBody(solvableButterfly, watchDeltas...),
		watchBody(`{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1;2;3","knowledge":"full","dealer":0,"receiver":4}`, `{"remove_nodes":[3]}`),
		watchBody(solvableButterfly, `{"remove_edges":[[1,3]]}`),
		watchBody(solvableButterfly, "{}", `{"bogus":1}`),
		"",
		"{\n",
		`{"graph":"0-1","dealer":0,"receiver":1,"bogus":1}` + "\n",
		`{"graph":"0-1","dealer":0,"receiver":9}` + "\n",
	} {
		f.Add([]byte(body))
	}
	s := New(Options{Workers: 2, CacheSize: 64, MaxWatchDeltas: 8, RequestTimeout: 2 * time.Second, LogWriter: io.Discard})
	f.Cleanup(s.Close)
	number := regexp.MustCompile(`[0-9]+`)
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, m := range number.FindAll(body, -1) {
			if id, err := strconv.Atoi(string(m)); err != nil || id > 15 {
				return
			}
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/watch", bytes.NewReader(body)))
		if rec.Code >= 400 && rec.Code < 500 {
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("%d reply without a JSON error: %q", rec.Code, rec.Body.Bytes())
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %q", rec.Code, rec.Body.Bytes())
		}
		lines := bytes.Split(bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")), []byte("\n"))
		rev := -1
		for i, line := range lines {
			var ev WatchEvent
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			if dec.Decode(&ev) == nil && ev.Key != "" {
				if ev.Rev <= rev || rev < 0 && ev.Rev != 0 {
					t.Fatalf("event rev %d after rev %d in %q", ev.Rev, rev, rec.Body.Bytes())
				}
				rev = ev.Rev
				continue
			}
			var we watchError
			dec = json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&we); err != nil || we.Error == "" {
				t.Fatalf("line %d is neither an event nor an error: %q", i, line)
			}
			if i != len(lines)-1 {
				t.Fatalf("error line %q is not the last of %q", line, rec.Body.Bytes())
			}
			if we.Rev < rev {
				t.Fatalf("error line for rev %d after rev %d", we.Rev, rev)
			}
		}
	})
}
