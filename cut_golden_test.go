package rmt

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rmt/internal/core"
	"rmt/internal/feasibility"
	"rmt/internal/gen"
	"rmt/internal/instance"
	"rmt/internal/zcpa"
)

// TestCutWitnessGolden pins the exact (found, C1, C2, B) the RMT-cut and
// 𝒵-pp-cut searches return, not only their verdicts. Cached
// /v1/feasibility and /v1/watch bodies embed these witnesses, so a change
// in enumeration order would break byte-identity across a fleet even when
// every verdict stays right. Cases:
//
//   - a fresh search under both definitions on every feasibility fixture at
//     every knowledge level;
//   - 200 seeded gen.RandomInstance draws;
//   - every revision of seeded gen.RandomDeltaChain runs through both
//     incremental checkers, with whether the revision was repaired or
//     searched afresh.
//
// Regenerate after an intentional change with:
//
//	go test . -run TestCutWitnessGolden -update
func TestCutWitnessGolden(t *testing.T) {
	got := cutWitnessLines(t)
	path := filepath.Join("testdata", "golden", "cut-witnesses.jsonl")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden witnesses (run with -update to create): %v", err)
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
	t.Fatalf("witness stream has %d lines, golden has %d", len(gl), len(wl))
}

// witnessLine is one golden record. Via is set on incremental revisions
// only: "repair" or "fresh", read off the checker's Stats.
type witnessLine struct {
	Case  string `json:"case"`
	Def   int    `json:"def"`
	Found bool   `json:"found"`
	C1    []int  `json:"c1"`
	C2    []int  `json:"c2"`
	B     []int  `json:"b"`
	Via   string `json:"via,omitempty"`
}

func cutWitnessLines(t *testing.T) []byte {
	t.Helper()
	ctx := context.Background()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	emit := func(l witnessLine) {
		if err := enc.Encode(l); err != nil {
			t.Fatal(err)
		}
	}
	fresh := func(name string, in *instance.Instance) {
		w, found, err := core.FindRMTCutCtx(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		emit(witnessLine{Case: name, Def: 3, Found: found, C1: w.C1.Members(), C2: w.C2.Members(), B: w.B.Members()})
		z, zfound, err := zcpa.FindRMTZppCutCtx(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		emit(witnessLine{Case: name, Def: 7, Found: zfound, C1: z.C1.Members(), C2: z.C2.Members(), B: z.B.Members()})
	}

	for _, f := range feasibility.All() {
		for _, level := range gen.Levels() {
			fresh(fmt.Sprintf("fixture/%s/%s", f.Name, level), f.MustBuild(level))
		}
	}

	r := rand.New(rand.NewSource(2016))
	levels := gen.Levels()
	for i := 0; i < 200; i++ {
		n := 4 + r.Intn(6)
		level := levels[i%len(levels)]
		in, err := gen.RandomInstance(r, n, 0.3+0.4*r.Float64(), 1+r.Intn(3), 0.4, level)
		if err != nil {
			continue
		}
		fresh(fmt.Sprintf("random/%d/%s", i, level), in)
	}

	via := func(before, after int) string {
		if after > before {
			return "repair"
		}
		return "fresh"
	}
	for fi, f := range feasibility.All() {
		for chain := 0; chain < 2; chain++ {
			level := levels[(fi+chain)%len(levels)]
			cur := f.MustBuild(level)
			deltas, err := gen.RandomDeltaChain(cur, level, 8, int64(100*fi+chain))
			if err != nil {
				t.Fatal(err)
			}
			incR, incZ := core.NewIncrementalCut(), zcpa.NewIncrementalCut()
			for rev := 0; rev <= len(deltas); rev++ {
				if rev > 0 {
					if cur, err = gen.ApplyDelta(cur, deltas[rev-1], level); err != nil {
						t.Fatal(err)
					}
				}
				name := fmt.Sprintf("chain/%s/%d/%s/rev%d", f.Name, chain, level, rev)
				before, _ := incR.Stats()
				w, found, err := incR.CheckCtx(ctx, cur)
				if err != nil {
					t.Fatal(err)
				}
				after, _ := incR.Stats()
				emit(witnessLine{Case: name, Def: 3, Found: found, C1: w.C1.Members(), C2: w.C2.Members(), B: w.B.Members(), Via: via(before, after)})
				before, _ = incZ.Stats()
				z, zfound, err := incZ.CheckCtx(ctx, cur)
				if err != nil {
					t.Fatal(err)
				}
				after, _ = incZ.Stats()
				emit(witnessLine{Case: name, Def: 7, Found: zfound, C1: z.C1.Members(), C2: z.C2.Members(), B: z.B.Members(), Via: via(before, after)})
			}
		}
	}
	return buf.Bytes()
}
