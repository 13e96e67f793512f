package rmt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rmt/internal/byzantine"
	"rmt/internal/cliutil"
	"rmt/internal/feasibility"
	"rmt/internal/gen"
	"rmt/internal/protocol"
	"rmt/internal/server"
)

// TestServerRepliesGolden pins rmtd's replies — status code and the
// SHA-256 of the body — over a fixed request corpus served in process:
//
//   - every feasibility fixture at every knowledge level, plain, with a
//     listening structure, with ma_budget 1, with a dealer that is not a
//     node, and with a structure that can corrupt the receiver; each body is
//     sent twice, so both the computed reply and the cached one are pinned;
//   - every registered protocol's /v1/run on every fixture at every level:
//     honest, corrupt (rotating attacks, lockstep and async engines) and
//     with an inadmissible corruption set;
//   - scripted /v1/watch streams: the butterfly's churn history (twice, the
//     replay served from the cache), its full-knowledge variant, a delta
//     that does not apply and a bad instance line.
//
// A change to the request pipeline that alters any reply byte moves a line.
// Regenerate after an intentional change with:
//
//	go test . -run TestServerRepliesGolden -update
func TestServerRepliesGolden(t *testing.T) {
	got := serverReplyLines(t)
	path := filepath.Join("testdata", "golden", "rmtd-replies.jsonl")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden replies (run with -update to create): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("line %d differs:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("reply stream has %d lines, golden has %d", len(gl), len(wl))
}

// replyLine is one golden record: the request case, the status and the
// hex SHA-256 of the reply body.
type replyLine struct {
	Case   string `json:"case"`
	Status int    `json:"status"`
	Body   string `json:"sha256"`
}

// butterflyWatch is the watch tests' churn script on the quick-start
// instance: a silent chord, the flip to unsolvable, the flip back.
const butterflyWatch = `{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1;2;3","dealer":0,"receiver":4}
{"add_edges":[[1,2]]}
{"remove_nodes":[3]}
{"add_nodes":[3],"add_edges":[[0,3],[3,4]]}
`

func serverReplyLines(t *testing.T) []byte {
	t.Helper()
	s := server.New(server.Options{Workers: 2, LogWriter: io.Discard})
	defer s.Close()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	serve := func(name, method, path string, body []byte) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		sum := sha256.Sum256(rec.Body.Bytes())
		if err := enc.Encode(replyLine{Case: name, Status: rec.Code, Body: hex.EncodeToString(sum[:])}); err != nil {
			t.Fatal(err)
		}
	}
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	serve("protocols", http.MethodGet, "/v1/protocols", nil)

	for _, f := range feasibility.All() {
		for _, level := range gen.Levels() {
			base := server.InstanceRequest{
				Graph:     f.Edges,
				Structure: cliutil.FormatStructure(f.Z),
				Knowledge: level.String(),
				Dealer:    f.Dealer,
				Receiver:  f.Receiver,
			}
			badDealer := base
			badDealer.Dealer = 99
			receiverInZ := base
			receiverInZ.Structure = strings.TrimPrefix(base.Structure+";"+fmt.Sprint(f.Receiver), ";")
			for _, v := range []struct {
				name string
				req  server.FeasibilityRequest
			}{
				{"plain", server.FeasibilityRequest{InstanceRequest: base}},
				{"listen", server.FeasibilityRequest{InstanceRequest: base, Listen: base.Structure}},
				{"ma1", server.FeasibilityRequest{InstanceRequest: base, MABudget: 1}},
				{"bad-dealer", server.FeasibilityRequest{InstanceRequest: badDealer}},
				{"receiver-in-z", server.FeasibilityRequest{InstanceRequest: receiverInZ, MABudget: -1}},
			} {
				body := marshal(v.req)
				for _, pass := range []string{"first", "again"} {
					serve(fmt.Sprintf("feasibility/%s/%s/%s/%s", f.Name, level, v.name, pass), http.MethodPost, "/v1/feasibility", body)
				}
			}
		}
	}

	attacks := byzantine.Names()
	i := 0
	for _, proto := range protocol.Names() {
		for _, f := range feasibility.All() {
			for _, level := range gen.Levels() {
				i++
				base := server.InstanceRequest{
					Graph:     f.Edges,
					Structure: cliutil.FormatStructure(f.Z),
					Knowledge: level.String(),
					Dealer:    f.Dealer,
					Receiver:  f.Receiver,
				}
				corrupt := server.RunRequest{InstanceRequest: base, Protocol: proto, Seed: int64(i), Trials: 2, Attack: attacks[i%len(attacks)]}
				if m := f.Z.Maximal(); len(m) > 0 {
					corrupt.Corrupt = m[0].Members()
				}
				if i%2 == 1 {
					corrupt.Engine, corrupt.Schedule = "async", "random"
				}
				inadmissible := server.RunRequest{InstanceRequest: base, Protocol: proto, Corrupt: []int{f.Dealer, f.Receiver}}
				for _, v := range []struct {
					name string
					req  server.RunRequest
				}{
					{"honest", server.RunRequest{InstanceRequest: base, Protocol: proto, Value: "golden", Seed: int64(i)}},
					{"corrupt", corrupt},
					{"inadmissible", inadmissible},
				} {
					serve(fmt.Sprintf("run/%s/%s/%s/%s", proto, f.Name, level, v.name), http.MethodPost, "/v1/run", marshal(v.req))
				}
			}
		}
	}
	serve("run/transcript", http.MethodPost, "/v1/run",
		[]byte(`{"graph":"0-1 1-2","dealer":0,"receiver":2,"protocol":"zcpa","transcript":true}`))

	for _, w := range []struct{ name, body string }{
		{"butterfly", butterflyWatch},
		{"butterfly-replay", butterflyWatch},
		{"butterfly-full", strings.Replace(butterflyWatch, `"dealer"`, `"knowledge":"full","dealer"`, 1)},
		{"absent-edge", strings.SplitAfter(butterflyWatch, "\n")[0] + `{"remove_edges":[[1,3]]}` + "\n"},
		{"bad-instance", `{"graph":"0-1","dealer":0,"receiver":9}` + "\n"},
	} {
		serve("watch/"+w.name, http.MethodPost, "/v1/watch", []byte(w.body))
	}
	return buf.Bytes()
}
