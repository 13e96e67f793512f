package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"rmt/internal/adversary"
	"rmt/internal/benchdef"
	"rmt/internal/cliutil"
	"rmt/internal/eval"
	"rmt/internal/feasibility"
	"rmt/internal/gen"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
	"rmt/internal/server"
)

const (
	pathFeasibility = "/v1/feasibility"
	pathRun         = "/v1/run"
	pathWatch       = "/v1/watch"

	// lruEntries is rmtd's default result-cache size. Cold workloads cycle
	// through more distinct keys than this, so every timed request misses.
	lruEntries = 1024
)

// op is one unit of closed-loop work: a request body and the reply it must
// receive, byte for byte. check is the semantic oracle the expected reply
// passed in set-up.
type op struct {
	path  string
	body  []byte
	want  []byte
	check func(reply []byte) error
}

// share is one measured input property of a workload, as a fraction of its
// timed ops (or of the unit named in the label).
type share struct {
	name  string
	value float64
}

// workload is everything set-up produces: ops sent before timing, the ops
// cycled through in the timed phase, and their measured input shares.
type workload struct {
	name   string
	warm   []op
	ops    []op
	shares []share
	// refSizes are the node counts of the reference requests (see ref.go),
	// chosen so that the reference's median latency and mean CPU per
	// request are close to the workload's: a busy host stretches long ops
	// more than short ones, and like-sized ops stretch alike.
	refSizes []int
}

var workloadNames = []string{"feasibility-hot", "feasibility-cold", "run-mix", "watch-churn"}

// buildWorkload generates a workload's inputs from seed and computes and
// checks its expected replies.
func buildWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "feasibility-hot":
		return buildHot(seed)
	case "feasibility-cold":
		return buildCold(seed)
	case "run-mix":
		return buildRunMix(seed)
	case "watch-churn":
		return buildWatch(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// rng derives an independent stream per (seed, purpose).
func rng(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// warmStream, with seed 0, draws the warm-up inputs of the cold workloads.
// They do not depend on the run's seed, so set-up does the same work for
// every seed.
const warmStream = 100

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return b
}

// expect computes the expected reply of every body with an untraced
// replayer, one goroutine per CPU, and checks it with the body's oracle.
func expect(path string, bodies [][]byte, check func(i int) func(reply []byte) error) ([]op, error) {
	type outcome struct {
		op  op
		err error
	}
	outs := eval.ParallelMap(len(bodies), 0, func(i int) outcome {
		reply, err := newReplayer(newTracer(traceOff)).replay(path, bodies[i])
		if err != nil {
			return outcome{err: fmt.Errorf("%s request %d: %w", path, i, err)}
		}
		c := check(i)
		if err := c(reply); err != nil {
			return outcome{err: fmt.Errorf("%s request %d: oracle: %w", path, i, err)}
		}
		return outcome{op: op{path, bodies[i], reply, c}}
	})
	ops := make([]op, len(outs))
	for i, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		ops[i] = o.op
	}
	return ops, nil
}

// --------------------------------------------------------- spelling

func instanceRequest(in *instance.Instance, level gen.Knowledge) server.InstanceRequest {
	return server.InstanceRequest{
		Graph:     cliutil.FormatEdgeList(in.G),
		Structure: cliutil.FormatStructure(in.Z),
		Knowledge: level.String(),
		Dealer:    in.Dealer,
		Receiver:  in.Receiver,
	}
}

// respellGraph permutes an edge list and flips edge endpoints at random:
// the same graph, spelled differently.
func respellGraph(r *rand.Rand, edges string) string {
	parts := strings.Fields(edges)
	r.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	for i, p := range parts {
		if u, v, ok := strings.Cut(p, "-"); ok && r.Intn(2) == 0 {
			parts[i] = v + "-" + u
		}
	}
	return strings.Join(parts, " ")
}

// respellStructure permutes the sets of a structure and the members of each
// set.
func respellStructure(r *rand.Rand, z string) string {
	if z == "" {
		return z
	}
	sets := strings.Split(z, ";")
	r.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
	for i, s := range sets {
		m := strings.Split(s, ",")
		r.Shuffle(len(m), func(a, b int) { m[a], m[b] = m[b], m[a] })
		sets[i] = strings.Join(m, ",")
	}
	return strings.Join(sets, ";")
}

// ------------------------------------------------------ feasibility-hot

// hotSpellings is the number of spellings per canonical instance: the
// canonical one, byte-repeated, and re-spellings of it.
const hotSpellings = 4

// hotOps is the length of the timed request sequence.
const hotOps = 4096

// hotInstances are the paper fixtures at every knowledge level, the SMT and
// MBRB boundary pairs with their listening structures and budgets, and a
// few small seeded random instances.
func hotInstances(seed int64) ([]server.FeasibilityRequest, error) {
	var reqs []server.FeasibilityRequest
	for _, f := range feasibility.All() {
		for _, level := range gen.Levels() {
			in, err := f.Build(level)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, server.FeasibilityRequest{InstanceRequest: instanceRequest(in, level)})
		}
	}
	for _, b := range feasibility.SMTBoundaries() {
		for _, pt := range []feasibility.SMTBoundaryPoint{b.Feasible, b.Infeasible} {
			in, err := pt.Build()
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, server.FeasibilityRequest{
				InstanceRequest: instanceRequest(in, gen.AdHoc),
				Listen:          cliutil.FormatStructure(pt.Listen),
			})
		}
	}
	for _, b := range feasibility.MBRBBoundaries() {
		for _, build := range []func() (*instance.Instance, error){b.Feasible, b.Infeasible} {
			in, err := build()
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, server.FeasibilityRequest{
				InstanceRequest: instanceRequest(in, gen.AdHoc),
				MABudget:        b.D,
			})
		}
	}
	r := rng(seed, 1)
	levels := gen.Levels()
	for i := 0; i < 16; i++ {
		level := levels[r.Intn(len(levels))]
		in, err := gen.RandomInstance(r, 8+r.Intn(3), 0.35, 3, 0.25, level)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, server.FeasibilityRequest{InstanceRequest: instanceRequest(in, level)})
	}
	return reqs, nil
}

func buildHot(seed int64) (*workload, error) {
	canon, err := hotInstances(seed)
	if err != nil {
		return nil, err
	}
	if len(canon) >= lruEntries {
		return nil, fmt.Errorf("feasibility-hot: %d instances do not fit the %d-entry cache", len(canon), lruEntries)
	}
	// spellings[i][0] is the canonical spelling; the others permute edge
	// lists, edge endpoints and structure order.
	r := rng(seed, 2)
	spellings := make([][][]byte, len(canon))
	var bodies [][]byte
	var owner []int
	for i, q := range canon {
		seen := map[string]bool{}
		for s := 0; s < hotSpellings; s++ {
			v := q
			if s > 0 {
				v.Graph = respellGraph(r, q.Graph)
				v.Structure = respellStructure(r, q.Structure)
				v.Listen = respellStructure(r, q.Listen)
			}
			b := mustJSON(v)
			if seen[string(b)] {
				continue // a tiny instance with fewer spellings than asked
			}
			seen[string(b)] = true
			spellings[i] = append(spellings[i], b)
			bodies = append(bodies, b)
			owner = append(owner, i)
		}
	}
	all, err := expect(pathFeasibility, bodies, feasibilityCheck(bodies))
	if err != nil {
		return nil, err
	}
	// Every spelling of one instance must get the canonical spelling's
	// bytes: byOwner[i][s] is spelling s of instance i.
	byOwner := make([][]op, len(canon))
	for i, o := range all {
		k := owner[i]
		if len(byOwner[k]) > 0 && !bytes.Equal(byOwner[k][0].want, o.want) {
			return nil, fmt.Errorf("feasibility-hot: re-spellings of instance %d get different bodies", k)
		}
		byOwner[k] = append(byOwner[k], o)
	}
	w := &workload{name: "feasibility-hot", refSizes: []int{12}}
	for i := range canon {
		w.warm = append(w.warm, byOwner[i][0])
	}
	seq := rng(seed, 3)
	repeats := 0
	for len(w.ops) < hotOps {
		i := seq.Intn(len(canon))
		s := 0
		if seq.Intn(2) == 1 && len(spellings[i]) > 1 {
			s = 1 + seq.Intn(len(spellings[i])-1)
		}
		if s == 0 {
			repeats++
		}
		w.ops = append(w.ops, byOwner[i][s])
	}
	w.shares = []share{
		{"instances", float64(len(canon))},
		{"byte_repeat", float64(repeats) / float64(len(w.ops))},
		{"respelled", float64(len(w.ops)-repeats) / float64(len(w.ops))},
	}
	return w, nil
}

// ----------------------------------------------------- feasibility-cold

// coldPool is the number of distinct instances cycled through; four times
// the cache, so that a key is evicted long before it comes round again. It
// is a multiple of the 120 strata of randomFeasibility.
const coldPool = 6240

// randomFeasibility draws a G(n,p) feasibility request for stratum i: n
// cycles through 12..14 and the knowledge level through every level, so
// that only the graphs and structures vary with the seed, not the mix; one
// request in eight carries a listening structure and one an MBRB budget.
func randomFeasibility(r *rand.Rand, i int) (server.FeasibilityRequest, error) {
	levels := gen.Levels()
	n := 12 + i%3
	level := levels[(i/4)%len(levels)]
	in, err := gen.RandomInstance(r, n, 0.25+0.1*r.Float64(), 3+r.Intn(3), 0.2, level)
	if err != nil {
		return server.FeasibilityRequest{}, err
	}
	req := server.FeasibilityRequest{InstanceRequest: instanceRequest(in, level)}
	switch (i / (3 * len(levels))) % 8 {
	case 0:
		interior := in.G.Nodes().Minus(nodeset.Of(in.Dealer, in.Receiver))
		req.Listen = cliutil.FormatStructure(adversary.Random(r, interior, 1+r.Intn(2), 0.15))
	case 1:
		req.MABudget = 1 + r.Intn(2)
	}
	return req, nil
}

// coldRequests draws n stratified random requests in a shuffled order.
func coldRequests(r *rand.Rand, n int) ([]server.FeasibilityRequest, error) {
	reqs := make([]server.FeasibilityRequest, n)
	for i := range reqs {
		q, err := randomFeasibility(r, i)
		if err != nil {
			return nil, err
		}
		reqs[i] = q
	}
	r.Shuffle(n, func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs, nil
}

// coldWarm is the number of warm-up requests, drawn from warmStream.
const coldWarm = 16

func buildCold(seed int64) (*workload, error) {
	warm, err := coldRequests(rng(0, warmStream), coldWarm)
	if err != nil {
		return nil, err
	}
	pool, err := coldRequests(rng(seed, 4), coldPool)
	if err != nil {
		return nil, err
	}
	reqs := append(warm, pool...)
	bodies := make([][]byte, len(reqs))
	for i, q := range reqs {
		bodies[i] = mustJSON(q)
	}
	all, err := expect(pathFeasibility, bodies, feasibilityCheck(bodies))
	if err != nil {
		return nil, err
	}
	w := &workload{name: "feasibility-cold", warm: all[:coldWarm], ops: all[coldWarm:], refSizes: []int{25, 25, 25, 44}}
	if distinct(w.ops) <= lruEntries {
		return nil, fmt.Errorf("feasibility-cold: only %d distinct requests", distinct(w.ops))
	}
	solvable, listen, budget := 0, 0, 0
	levels := map[string]int{}
	for i, q := range pool {
		var resp server.FeasibilityResponse
		if err := json.Unmarshal(w.ops[i].want, &resp); err != nil {
			return nil, err
		}
		if resp.PKA.Solvable {
			solvable++
		}
		levels[q.Knowledge]++
		if q.Listen != "" {
			listen++
		}
		if q.MABudget > 0 {
			budget++
		}
	}
	n := float64(len(w.ops))
	w.shares = []share{{"pka_solvable", float64(solvable) / n}}
	for _, l := range gen.Levels() {
		w.shares = append(w.shares, share{"knowledge_" + l.String(), float64(levels[l.String()]) / n})
	}
	w.shares = append(w.shares, share{"with_listen", float64(listen) / n}, share{"with_ma_budget", float64(budget) / n})
	return w, nil
}

func feasibilityCheck(bodies [][]byte) func(i int) func([]byte) error {
	return func(i int) func([]byte) error {
		return func(reply []byte) error { return checkFeasibility(bodies[i], reply) }
	}
}

func distinct(ops []op) int {
	seen := make(map[string]bool, len(ops))
	for _, o := range ops {
		seen[string(o.body)] = true
	}
	return len(seen)
}

// -------------------------------------------------------------- run-mix

// runRow is one benchdef topology as a run request template.
type runRow struct {
	name       string
	protocol   string
	req        server.InstanceRequest
	mustDecide bool
	small      bool // few enough nodes for transcripts and corruption
	weight     int
}

// runRows turns the benchdef table into request templates. The no-memo
// row is skipped: the memo switch is not part of the HTTP API, so it would
// repeat the PKARun topology. The knowledge level is recovered as the first
// level whose build reproduces the row's canonical instance, or full for
// protocols that require it.
func runRows() ([]runRow, error) {
	var rows []runRow
	for _, b := range benchdef.ProtoBenches {
		if b.Opts.DisableMemo {
			continue
		}
		in, err := b.Instance()
		if err != nil {
			return nil, err
		}
		level := gen.FullKnowledge
		if p, _ := protocol.Get(b.Protocol); p == nil || !p.Caps().NeedsFullKnowledge {
			if level, err = levelOf(in); err != nil {
				return nil, fmt.Errorf("%s: %w", b.Name, err)
			}
		}
		small := in.G.NumNodes() <= 12
		weight := 4
		if !small {
			weight = 1 // the ≥48-node rows cost up to 200× a small one
		}
		rows = append(rows, runRow{b.Name, b.Protocol, instanceRequest(in, level), b.MustDecide, small, weight})
	}
	return rows, nil
}

func levelOf(in *instance.Instance) (gen.Knowledge, error) {
	for _, level := range gen.Levels() {
		again, err := gen.Build(in.G, in.Z, level, in.Dealer, in.Receiver)
		if err == nil && again.CanonicalKey() == in.CanonicalKey() {
			return level, nil
		}
	}
	return 0, fmt.Errorf("no knowledge level rebuilds the instance")
}

func buildRunMix(seed int64) (*workload, error) {
	rows, err := runRows()
	if err != nil {
		return nil, err
	}
	var deck []int
	for i, row := range rows {
		for k := 0; k < row.weight; k++ {
			deck = append(deck, i)
		}
	}
	// The pool is the full grid deck × trials 1–4 × engine (three lockstep
	// slots, async random, async lifo) × variant (two corrupt slots and one
	// transcript slot, both on small topologies only, five plain), in a
	// seeded order: the mix is fixed, the seed picks the order, the request
	// seeds, the corrupted node and the attack. Large topologies run honest:
	// silencing a short chain of PKARunLarge leaves only its 196-hop chain,
	// and the undecided run then takes about 30s, rmtd's request deadline.
	grid := len(deck) * 4 * 5 * 8
	r := rng(seed, 5)
	order := r.Perm(grid)
	attacks := []string{"silent", "spammer", "replayer"}
	// The first len(rows) requests are the warm-up, the same for every
	// seed: one honest lockstep trial per topology.
	warm := len(rows)
	n := warm + grid
	reqs := make([]server.RunRequest, n)
	rowOf := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < warm; i++ {
		q := server.RunRequest{InstanceRequest: rows[i].req, Protocol: rows[i].protocol, Seed: -int64(i) - 1}
		reqs[i], rowOf[i], bodies[i] = q, i, mustJSON(q)
	}
	for i := warm; i < n; i++ {
		c := order[i-warm]
		idx := deck[c%len(deck)]
		row := rows[idx]
		c /= len(deck)
		q := server.RunRequest{
			InstanceRequest: row.req,
			Protocol:        row.protocol,
			Seed:            seed*1_000_000 + int64(i) + 1,
			Trials:          1 + c%4,
		}
		c /= 4
		switch c % 5 {
		case 3:
			q.Engine, q.Schedule = "async", "random"
		case 4:
			q.Engine, q.Schedule = "async", "lifo"
		}
		switch c / 5 {
		case 0, 1:
			if !row.small {
				break
			}
			in, _, err := buildRequest(row.req)
			if err != nil {
				return nil, err
			}
			interior := in.G.Nodes().Minus(nodeset.Of(in.Dealer, in.Receiver)).Members()
			if v := interior[r.Intn(len(interior))]; in.Admissible(nodeset.Of(v)) {
				q.Corrupt = []int{v}
				q.Attack = attacks[r.Intn(len(attacks))]
			}
		case 2:
			q.Transcript = row.small
		}
		reqs[i], rowOf[i], bodies[i] = q, idx, mustJSON(q)
	}
	all, err := expect(pathRun, bodies, func(i int) func([]byte) error {
		mustDecide := rows[rowOf[i]].mustDecide && len(reqs[i].Corrupt) == 0
		return func(reply []byte) error { return checkRun(bodies[i], reply, mustDecide) }
	})
	if err != nil {
		return nil, err
	}
	w := &workload{name: "run-mix", warm: all[:warm], ops: all[warm:], refSizes: []int{21, 21, 21, 21, 90}}
	byProto := map[string]int{}
	byEngine := map[string]int{}
	corrupt, transcript, trials := 0, 0, 0
	for _, q := range reqs[warm:] {
		byProto[q.Protocol]++
		e := "lockstep"
		if q.Engine == "async" {
			e = "async_" + q.Schedule
		}
		byEngine[e]++
		if len(q.Corrupt) > 0 {
			corrupt++
		}
		if q.Transcript {
			transcript++
		}
		trials += q.Trials
	}
	total := float64(len(w.ops))
	for _, k := range sortedKeys(byProto) {
		w.shares = append(w.shares, share{"protocol_" + k, float64(byProto[k]) / total})
	}
	for _, k := range sortedKeys(byEngine) {
		w.shares = append(w.shares, share{"engine_" + k, float64(byEngine[k]) / total})
	}
	w.shares = append(w.shares,
		share{"corrupt", float64(corrupt) / total},
		share{"transcript", float64(transcript) / total},
		share{"mean_trials", float64(trials) / total})
	return w, nil
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ---------------------------------------------------------- watch-churn

const (
	// watchPool subscriptions of watchDeltas revisions each insert
	// watchPool·(watchDeltas+1) cache entries per cycle, far beyond the
	// cache, so every revision is computed. Subscriptions are stratified
	// over four knowledge slots (adhoc twice, radius1, radius2) and n in
	// 9..11, so watchPool is a multiple of 12.
	watchPool   = 1536
	watchDeltas = 16
)

// watchWarm is the number of warm-up subscriptions, drawn from warmStream.
const watchWarm = 4

// watchSubs draws n stratified subscriptions in a shuffled order, with
// their request bodies.
func watchSubs(r *rand.Rand, n int) ([]watchSub, [][]byte, error) {
	levels := []gen.Knowledge{gen.AdHoc, gen.AdHoc, gen.Radius1, gen.Radius2}
	subs := make([]watchSub, n)
	bodies := make([][]byte, n)
	for i := range subs {
		level := levels[i%len(levels)]
		in, err := gen.RandomInstance(r, 9+(i/len(levels))%3, 0.3+0.1*r.Float64(), 3, 0.2, level)
		if err != nil {
			return nil, nil, err
		}
		deltas, err := gen.RandomDeltaChain(in, level, watchDeltas, r.Int63())
		if err != nil {
			return nil, nil, err
		}
		subs[i] = watchSub{base: instanceRequest(in, level), deltas: deltas}
		lines := []string{string(mustJSON(subs[i].base))}
		for _, d := range deltas {
			lines = append(lines, string(mustJSON(d)))
		}
		bodies[i] = []byte(strings.Join(lines, "\n") + "\n")
	}
	r.Shuffle(n, func(i, j int) {
		subs[i], subs[j] = subs[j], subs[i]
		bodies[i], bodies[j] = bodies[j], bodies[i]
	})
	return subs, bodies, nil
}

func buildWatch(seed int64) (*workload, error) {
	warmSubs, warmBodies, err := watchSubs(rng(0, warmStream), watchWarm)
	if err != nil {
		return nil, err
	}
	poolSubs, poolBodies, err := watchSubs(rng(seed, 6), watchPool)
	if err != nil {
		return nil, err
	}
	subs, bodies := append(warmSubs, poolSubs...), append(warmBodies, poolBodies...)
	all, err := expect(pathWatch, bodies, func(i int) func([]byte) error {
		return func(reply []byte) error { return checkWatch(subs[i], reply) }
	})
	if err != nil {
		return nil, err
	}
	w := &workload{name: "watch-churn", warm: all[:watchWarm], ops: all[watchWarm:], refSizes: []int{46, 46, 62}}
	// Repair effort, measured by replaying the timed subscriptions once;
	// the oracle has checked that each event after rev 0 is a flip.
	rp := newReplayer(newTracer(traceOff))
	flipped, withFlip := 0, 0
	for _, o := range w.ops {
		if _, err := rp.replay(o.path, o.body); err != nil {
			return nil, err
		}
		f := bytes.Count(o.want, []byte("\n")) - 1
		flipped += f
		if f > 0 {
			withFlip++
		}
	}
	revs := float64(len(w.ops) * (watchDeltas + 1))
	w.shares = []share{
		{"revisions_per_op", float64(watchDeltas + 1)},
		{"pka_repaired", float64(rp.repairedR) / revs},
		{"pka_fresh", float64(rp.freshR) / revs},
		{"zcpa_repaired", ratio(rp.repairedZ, rp.repairedZ+rp.freshZ)},
		{"flips_per_revision", float64(flipped) / revs},
		{"subscriptions_with_flip", float64(withFlip) / float64(len(w.ops))},
	}
	return w, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
