package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rmt/internal/cliutil"
)

// smtInstance leaves relays 2 and 3 honest, so the SMT verdict genuinely
// depends on the listening structure: feasible with no listening, infeasible
// once an ear covers both honest relays.
const smtInstance = `{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1","dealer":0,"receiver":4}`

// feasibilityBodyKey decodes a /v1/feasibility body and derives its result-cache
// key the way the handler does: parse, then feasibilityKey.
func feasibilityBodyKey(body []byte) (string, error) {
	var req FeasibilityRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return "", err
	}
	p, err := req.parse()
	if err != nil {
		return "", err
	}
	listen, err := cliutil.ParseStructure(req.Listen)
	if err != nil {
		return "", err
	}
	return feasibilityKey(p, req.MABudget, listen), nil
}

func feasibilityKeyOf(t *testing.T, body string) string {
	t.Helper()
	key, err := feasibilityBodyKey([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestFeasibilityCacheKeyCarriesListen is the regression test for the
// cache-poisoning bug the v3 key bump fixed: the v2-era key did not include
// the listening structure, so a cached no-listening body would have been
// served byte-identically for a listening-structure request of the same
// instance — reporting an eavesdroppable pairing as SMT-feasible. Under the
// current key, requests differing only in "listen" are distinct entries with
// different verdicts, and entries planted under the v2- and v3-era key
// layouts are never consulted.
func TestFeasibilityCacheKeyCarriesListen(t *testing.T) {
	srv, ts := newTestServer(t, Options{})

	// Plant sentinel bodies under the exact keys earlier daemon versions
	// would have used for this instance. If any request below returns one,
	// the handler consulted a retired entry.
	var q InstanceRequest
	if err := json.Unmarshal([]byte(smtInstance), &q); err != nil {
		t.Fatal(err)
	}
	p, err := q.parse()
	if err != nil {
		t.Fatal(err)
	}
	in, err := p.build()
	if err != nil {
		t.Fatal(err)
	}
	level := p.level
	stale := []byte(`{"sentinel":"retired cached body"}`)
	retired := []string{
		fmt.Sprintf("feasibility-v2\n%s\nd=%d\n%s", level, 0, in.CanonicalKey()),
		fmt.Sprintf("feasibility-v3\n%s\nd=%d\nlisten=%s\n%s", level, 0, "", in.CanonicalKey()),
	}
	for _, key := range retired {
		srv.cache.put(key, stale)
	}

	// No listening: SMT-feasible (a share family over the honest relays).
	code, body := post(t, ts, "/v1/feasibility", smtInstance)
	if code != http.StatusOK {
		t.Fatalf("no-listen request: %d %s", code, body)
	}
	var noListen FeasibilityResponse
	if err := json.Unmarshal(body, &noListen); err != nil {
		t.Fatalf("no-listen request returned unparseable (stale?) body %s: %v", body, err)
	}
	if noListen.SMT == nil || !noListen.SMT.Feasible {
		t.Fatalf("no-listen verdict: %+v, want SMT-feasible", noListen.SMT)
	}

	// Same instance, listening structure covering both honest relays: the
	// secrecy cut must flip the verdict — a served retired or no-listen body
	// would wrongly say feasible.
	listening := `{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1","dealer":0,"receiver":4,"listen":"2,3"}`
	code, lbody := post(t, ts, "/v1/feasibility", listening)
	if code != http.StatusOK {
		t.Fatalf("listen request: %d %s", code, lbody)
	}
	var withListen FeasibilityResponse
	if err := json.Unmarshal(lbody, &withListen); err != nil {
		t.Fatalf("listen request returned unparseable (stale?) body %s: %v", lbody, err)
	}
	if withListen.SMT == nil || withListen.SMT.Feasible {
		t.Fatalf("listen verdict: %+v, want SMT-infeasible (cached no-listen body served?)", withListen.SMT)
	}
	if len(withListen.SMT.SecrecyCut) == 0 || len(withListen.SMT.SecrecyListen) == 0 {
		t.Fatalf("listen verdict lacks a secrecy-cut witness: %+v", withListen.SMT)
	}

	// Both requests computed fresh entries under their own keys; the planted
	// bodies must still be sitting untouched in the cache, never served.
	for req, want := range map[string][]byte{smtInstance: body, listening: lbody} {
		if got, ok := srv.cache.get(feasibilityKeyOf(t, req)); !ok || !bytes.Equal(got, want) {
			t.Fatalf("%s: body not cached under its feasibilityKey", req)
		}
	}
	for _, key := range retired {
		if got, ok := srv.cache.get(key); !ok || !bytes.Equal(got, stale) {
			t.Fatalf("retired entry %q was evicted or rewritten by the handler", key)
		}
	}

	// And the listening request is itself cached — repeat and compare.
	code, again := post(t, ts, "/v1/feasibility", listening)
	if code != http.StatusOK || !bytes.Equal(again, lbody) {
		t.Fatalf("listening request not served byte-identically from cache")
	}
}

// respellings groups /v1/feasibility bodies by the request they spell: every
// body in a group names the same (G, 𝒵, level, D, R, d, ℒ), and no two groups
// do.
var respellings = [][]string{
	{ // the butterfly, ad hoc
		`{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1;2;3","dealer":0,"receiver":4}`,
		`{"graph":"4-3 2-0 1-0 3-0 4-1 2-4","structure":"3;2;1","knowledge":"ad-hoc","dealer":0,"receiver":4}`,
		`{"graph":"0-1,0-2;0-3\n1-4\t2-4 3-4 0-1","structure":" 2 ; 3;1;1 ","knowledge":"ADHOC","dealer":0,"receiver":4}`,
	},
	{ // the butterfly at radius 1: same (G, 𝒵, D, R), another level
		`{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1;2;3","knowledge":"radius1","dealer":0,"receiver":4}`,
		`{"graph":"3-4 2-4 1-4 0-3 0-2 0-1","structure":"1;3;2","knowledge":"r1","dealer":0,"receiver":4}`,
	},
	{ // the butterfly with the terminals swapped
		`{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1;2;3","dealer":4,"receiver":0}`,
	},
	{ // the butterfly with an isolated node: V(G) is part of the tuple
		`{"graph":"0-1 0-2 0-3 1-4 2-4 3-4 7","structure":"1;2;3","dealer":0,"receiver":4}`,
		`{"graph":"7 4-3 4-2 4-1 3-0 2-0 1-0","structure":"3;1;2","dealer":0,"receiver":4}`,
	},
	{ // a dominated set is not part of 𝒵's antichain
		`{"graph":"0-1 0-2 1-3 2-3","structure":"1,2;1","dealer":0,"receiver":3}`,
		`{"graph":"0-1 0-2 1-3 2-3","structure":"2,1","dealer":0,"receiver":3}`,
		`{"graph":"0-1 0-2 1-3 2-3","structure":"2;1,2;2,1","dealer":0,"receiver":3}`,
	},
	{ // the same diamond with two singleton classes
		`{"graph":"0-1 0-2 1-3 2-3","structure":"1;2","dealer":0,"receiver":3}`,
	},
	{ // a listening structure, permuted sets and members
		`{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1","dealer":0,"receiver":4,"listen":"2,3;1"}`,
		`{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1","dealer":0,"receiver":4,"listen":"1;3,2"}`,
		`{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1","dealer":0,"receiver":4,"listen":"3;1;3,2"}`,
	},
	{ // the same instance without listening
		`{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1","dealer":0,"receiver":4}`,
		`{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1","dealer":0,"receiver":4,"listen":""}`,
	},
	{ // and with a suppression budget
		`{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1","dealer":0,"receiver":4,"ma_budget":1}`,
	},
}

// TestFeasibilityKeyRespellings: every re-spelling of a request shares one
// key and one cache entry with one body, and distinct requests never share
// a key.
func TestFeasibilityKeyRespellings(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	owner := map[string]int{}
	for gi, group := range respellings {
		var first []byte
		for _, body := range group {
			key := feasibilityKeyOf(t, body)
			if g, ok := owner[key]; ok && g != gi {
				t.Fatalf("groups %d and %d share the key %q", g, gi, key)
			}
			owner[key] = gi
			code, got := post(t, ts, "/v1/feasibility", body)
			if code != http.StatusOK {
				t.Fatalf("%s: %d %s", body, code, got)
			}
			if first == nil {
				first = got
			} else if !bytes.Equal(got, first) {
				t.Fatalf("group %d: %s got another body:\n%s\nvs\n%s", gi, body, got, first)
			}
		}
	}
	if len(owner) != len(respellings) {
		t.Fatalf("%d keys for %d groups", len(owner), len(respellings))
	}
	if n := srv.cache.len(); n != len(respellings) {
		t.Fatalf("cache holds %d entries for %d distinct requests", n, len(respellings))
	}
}

// TestBadRequestPrecedence: a body that is invalid in two ways gets the
// same 400 as before the hit path stopped building instances — the
// instance tuple is checked first, in instance.New's order, then the
// endpoint's own parameters.
func TestBadRequestPrecedence(t *testing.T) {
	s := New(Options{LogWriter: io.Discard, MaxTrials: 8})
	t.Cleanup(s.Close)
	const diamond = `"graph":"0-1 0-2 1-3 2-3","dealer":0,"receiver":3`
	cases := []struct{ path, body, want string }{
		{"/v1/feasibility", `{"graph":"0-1 1-2","dealer":9,"receiver":2,"ma_budget":-1}`,
			`{"error":"instance: instance: dealer is not a node of G"}`},
		{"/v1/feasibility", `{"graph":"0-1 1-2","structure":"2","dealer":0,"receiver":2,"listen":"x"}`,
			`{"error":"instance: instance: adversary structure can corrupt the receiver"}`},
		{"/v1/feasibility", `{"graph":"0-1 1-2","structure":"5","knowledge":"psychic","dealer":0,"receiver":2}`,
			`{"error":"instance: cliutil: unknown knowledge level \"psychic\" (want adhoc|radius1|radius2|radius3|full)"}`},
		{"/v1/feasibility", `{"graph":"0-1 1-2","dealer":1,"receiver":1,"ma_budget":-1,"listen":"x"}`,
			`{"error":"instance: instance: dealer equals receiver"}`},
		{"/v1/feasibility", `{"graph":"0-1 1-2","structure":"1,7","dealer":0,"receiver":2,"listen":"y"}`,
			`{"error":"instance: instance: adversary structure mentions non-nodes {7}"}`},
		{"/v1/feasibility", `{"graph":" ","structure":"x","dealer":0,"receiver":2}`,
			`{"error":"instance: graph is required"}`},
		{"/v1/feasibility", `{"graph":"0-1 1-2","structure":"0","dealer":0,"receiver":2,"ma_budget":-3}`,
			`{"error":"instance: instance: adversary structure can corrupt the dealer"}`},
		{"/v1/run", `{` + diamond + `,"structure":"1;2","protocol":"nope","corrupt":[1,2]}`,
			`{"error":"unknown protocol \"nope\" (see /v1/protocols)"}`},
		{"/v1/run", `{"graph":"0-1 0-2 1-3 2-3","structure":"1;2","dealer":7,"receiver":3,"protocol":"nope"}`,
			`{"error":"instance: instance: dealer is not a node of G"}`},
		{"/v1/run", `{` + diamond + `,"structure":"1;2","corrupt":[1,2],"attack":"nope"}`,
			`{"error":"corruption set {1, 2} is not admissible under ⟨{1}, {2}⟩"}`},
		{"/v1/run", `{` + diamond + `,"structure":"1;2","protocol":"ppa","engine":"nope"}`,
			`{"error":"protocol \"ppa\" requires \"knowledge\": \"full\""}`},
		{"/v1/run", `{` + diamond + `,"structure":"2,1;1","corrupt":[1,3],"trials":9}`,
			`{"error":"trials 9 exceeds the limit 8"}`},
		{"/v1/run", `{` + diamond + `,"structure":"2;1","corrupt":[1,2]}`,
			`{"error":"corruption set {1, 2} is not admissible under ⟨{1}, {2}⟩"}`},
		{"/v1/run", `{` + diamond + `,"structure":"1;2","corrupt":[-1],"attack":"nope"}`,
			`{"error":"corrupt: node -1 is outside [0, 1048576]"}`},
		{"/v1/run", `{` + diamond + `,"structure":"1;2","corrupt":[1,1048577]}`,
			`{"error":"corrupt: node 1048577 is outside [0, 1048576]"}`},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		if rec.Code != http.StatusBadRequest || rec.Body.String() != tc.want+"\n" {
			t.Errorf("%s %s:\n got %d %s\nwant 400 %s", tc.path, tc.body, rec.Code, rec.Body.String(), tc.want)
		}
	}
}

// TestRunKeyQuotesFreeText: "value" and "forged" are free text. Spliced
// into the key unquoted, a value carrying a line break and the fields after
// it spelled the same key as another request whose forged string carried
// them, and the second request was served the first one's decisions.
func TestRunKeyQuotesFreeText(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	const tail = "\nengine: lockstep\nschedule: sync\nseed: 0\ntrials: 1\ncorrupt: \nattack: silent\nforged: "
	body := func(value, forged string) string {
		b, err := json.Marshal(RunRequest{
			InstanceRequest: InstanceRequest{Graph: "0-1 0-2 0-3 1-4 2-4 3-4", Structure: "1;2;3", Dealer: 0, Receiver: 4},
			Value:           value, Forged: forged,
		})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, value := range []string{"x", "x" + tail + "y"} {
		forged := "y" + tail + "z"
		if value != "x" {
			forged = "z"
		}
		code, got := post(t, ts, "/v1/run", body(value, forged))
		if code != http.StatusOK {
			t.Fatalf("value %q: %d %s", value, code, got)
		}
		var resp RunResponse
		if err := json.Unmarshal(got, &resp); err != nil {
			t.Fatal(err)
		}
		if tr := resp.Trials[0]; !tr.Decided || tr.Decision != value {
			t.Fatalf("value %q: served decision %q (another request's body)", value, tr.Decision)
		}
	}
}
