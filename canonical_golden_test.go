package rmt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rmt/internal/feasibility"
	"rmt/internal/gen"
	"rmt/internal/instance"
)

// TestCanonicalKeyGolden pins instance.CanonicalString (by its SHA-256) and
// instance.CanonicalKey byte for byte. rmtd serves the key in every
// /v1/feasibility, /v1/run and /v1/watch body and shards its fleet by it,
// so a renderer change that moves any key breaks byte-identity with every
// cache entry already served. Cases:
//
//   - every feasibility fixture at every knowledge level;
//   - 200 seeded gen.RandomInstance draws;
//   - the ChainKeys of one seeded gen.RandomDeltaChain.
//
// Regenerate after an intentional change with:
//
//	go test . -run TestCanonicalKeyGolden -update
func TestCanonicalKeyGolden(t *testing.T) {
	got := canonicalKeyLines(t)
	path := filepath.Join("testdata", "golden", "canonical-keys.jsonl")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden keys (run with -update to create): %v", err)
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
	t.Fatalf("key stream has %d lines, golden has %d", len(gl), len(wl))
}

// keyLine is one golden record. String is the hex SHA-256 of
// CanonicalString; chain revisions carry only their chain key.
type keyLine struct {
	Case   string `json:"case"`
	String string `json:"string,omitempty"`
	Key    string `json:"key"`
}

func canonicalKeyLines(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	emit := func(name string, in *instance.Instance) {
		sum := sha256.Sum256([]byte(in.CanonicalString()))
		if err := enc.Encode(keyLine{Case: name, String: hex.EncodeToString(sum[:]), Key: in.CanonicalKey()}); err != nil {
			t.Fatal(err)
		}
	}

	for _, f := range feasibility.All() {
		for _, level := range gen.Levels() {
			emit(fmt.Sprintf("fixture/%s/%s", f.Name, level), f.MustBuild(level))
		}
	}

	r := rand.New(rand.NewSource(1996))
	levels := gen.Levels()
	for i := 0; i < 200; i++ {
		n := 4 + r.Intn(8)
		level := levels[i%len(levels)]
		in, err := gen.RandomInstance(r, n, 0.2+0.6*r.Float64(), 1+r.Intn(4), 0.4, level)
		if err != nil {
			continue
		}
		emit(fmt.Sprintf("random/%d/%s", i, level), in)
	}

	base := feasibility.All()[0].MustBuild(gen.Radius1)
	deltas, err := gen.RandomDeltaChain(base, gen.Radius1, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range instance.ChainKeys(base, deltas) {
		if err := enc.Encode(keyLine{Case: fmt.Sprintf("chain/%s/rev%d", feasibility.All()[0].Name, i+1), Key: k}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}
