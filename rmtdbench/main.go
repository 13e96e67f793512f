// Command rmtdbench is the end-to-end benchmark of rmtd, the RMT query
// daemon. It starts rmtd as a child process (defaults, -quiet, a loopback
// ephemeral address), drives one named closed-loop workload against it
// over loopback HTTP with one client, checks every reply against an oracle
// computed in set-up, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// With -trace 0 the metrics are the end-to-end ones: the client alternates
// between rmtd and a reference server (see ref.go), and each time metric
// (name ending in _rel) is rmtd's figure over the reference's, so that it
// does not follow the speed of a shared host. With -trace 1 a
// shorter loopback phase supplies rmtd's cache and failure counters, and
// the same seeded requests are then replayed in process: each one through
// server.Server.ServeHTTP, and again through the layers' public functions
// with a span around each call (see replay.go), from which the per-layer
// metrics are derived.
//
// Build and run it from the repository root with run.sh:
//
//	bash rmtdbench/run.sh --workload feasibility-hot --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"rmt/internal/server"
)

//go:embed predictions.json
var predictionsJSON []byte

// prediction names the end-to-end metrics a layer metric should move, and
// the workloads on which it should and should not move them.
type prediction struct {
	Layer     []string `json:"layer"`
	Moves     []string `json:"moves"`
	On        []string `json:"on"`
	Unchanged []string `json:"unchanged_on,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times a -trace 0 run starts rmtd and warms it;
// setup_s is the median.
const setupReps = 11

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rmtdbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rmtdbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed    = fs.Int64("seed", 1, "input seed")
		seconds = fs.Float64("seconds", 10, "length of the measured phase")
		trace   = fs.Int("trace", 0, "1 = per-layer metrics from the traced replay")
		bin     = fs.String("rmtd", "", "path to the rmtd binary")
		ref     = fs.Bool("reference", false, "serve the reference workload instead (rmtdbench starts itself so)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *ref:
		return serveReference()
	case *bin == "":
		return errors.New("-rmtd is required")
	case *seconds <= 0:
		return errors.New("-seconds must be positive")
	case *trace != 0 && *trace != 1:
		return errors.New("-trace must be 0 or 1")
	}
	var preds []prediction
	if err := json.Unmarshal(predictionsJSON, &preds); err != nil {
		return fmt.Errorf("predictions.json: %w", err)
	}

	t0 := time.Now()
	w, err := buildWorkload(*name, *seed)
	if err != nil {
		return err
	}
	rejected, err := selfTest(w)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d timed ops cycled, %d warm-up ops; inputs and oracle built in %.2fs\n",
		w.name, *seed, len(w.ops), len(w.warm), time.Since(t0).Seconds())
	fmt.Fprintf(stdout, "oracle self-test: %d of %d wrong replies rejected\n", rejected, rejected)
	for _, s := range w.shares {
		fmt.Fprintf(stdout, "input %-28s %.4f\n", s.name, s.value)
	}

	client := newClient()
	defer client.CloseIdleConnections()
	reps := setupReps
	if *trace == 1 {
		reps = 1
	}
	var setups []float64
	var d *daemon
	for i := 0; i < reps; i++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		if d, err = startDaemon("rmtd", *bin, []string{"-quiet", "-addr", "127.0.0.1:0"}, client); err != nil {
			return err
		}
		if err := warmUp(client, d.base, w.warm); err != nil {
			d.stop()
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer d.stop()
	fmt.Fprintf(stdout, "set-up (launch to healthy, plus warm-up) per start, s: %s\n", formatFloats(setups))

	dur := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 0 {
		res, err = measureWithReference(stdout, w, d, client, dur, median(setups))
	} else {
		res, err = traced(stdout, w, d, client, dur)
	}
	if err != nil {
		return err
	}
	for _, p := range preds {
		if !slices.Contains(p.On, w.name) {
			continue
		}
		moves := "exact counts that a speed-up must leave unchanged"
		if len(p.Moves) > 0 {
			moves = "should move " + strings.Join(p.Moves, ", ") + " here"
		}
		if len(p.Unchanged) > 0 {
			moves += "; predicted unchanged on " + strings.Join(p.Unchanged, ", ")
		}
		fmt.Fprintf(stdout, "prediction: %s: %s\n", strings.Join(p.Layer, ", "), moves)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return nil
}

// measure is the -trace 0 run: the timed closed loop, alternating rmtd
// with the reference server, and the end-to-end metrics. The time metrics
// are rmtd's statistic over the reference's, window by window (see ref.go);
// the absolute figures are printed above the result.
func measure(stdout io.Writer, w *workload, d, ref *daemon, client *http.Client, refOps []op, dur time.Duration, setupS float64) (*result, error) {
	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	refCPU0, err := ref.cpuTime()
	if err != nil {
		return nil, err
	}
	steal0, total0, err := hostCPU()
	if err != nil {
		return nil, err
	}
	rssSamples := d.sampleRSS(time.Now())
	lr := drive(client, &cursor{base: d.base, ops: w.ops}, &cursor{base: ref.base, ops: refOps}, dur)
	cpu1, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	refCPU1, err := ref.cpuTime()
	if err != nil {
		return nil, err
	}
	rss, err := rssSamples.finish()
	if err != nil {
		return nil, err
	}
	steal1, total1, err := hostCPU()
	if err != nil {
		return nil, err
	}
	hwm, err := d.memMB("VmHWM")
	if err != nil {
		return nil, err
	}
	if lr.refErr != nil {
		return nil, fmt.Errorf("reference server: %w", lr.refErr)
	}
	attempted := lr.ok + lr.failed
	if attempted == 0 {
		return nil, errors.New("no op completed in the measured phase")
	}
	refDone := 0
	for _, r := range lr.ref {
		refDone += r.ok
	}
	rate, p50 := stats(lr.rmtd)
	refRate, refP50 := stats(lr.ref)
	lat, refLat := pooled(lr.rmtd), pooled(lr.ref)
	fmt.Fprintf(stdout, "latency samples %d (%d beyond the p99), reference samples %d, 1 client, %d pairs of a %v rmtd slice and a %v reference slice, %.2fs measured\n",
		attempted, attempted/100, len(refLat), len(lr.rmtd), rmtdSlice, refSlice, lr.elapsed.Seconds())
	fmt.Fprintf(stdout, "failed_ratio %.6f (%d of %d)\n", float64(lr.failed)/float64(attempted), lr.failed, attempted)
	if lr.firstErr != nil {
		fmt.Fprintf(stdout, "first failure: %v\n", lr.firstErr)
	}
	fmt.Fprintf(stdout, "host CPU stolen by the hypervisor during the measured phase: %.1f%%\n",
		100*float64(steal1-steal0)/float64(max(total1-total0, 1)))
	rssPeaks := windowPeaks(rss, lr.elapsed, len(lr.rmtd))
	fmt.Fprintf(stdout, "rmtd VmHWM %.2f MB over its lifetime; per-pair peak VmRSS, MB: median %.2f, max %.2f\n", hwm, median(rssPeaks), slices.Max(rssPeaks))
	cpuPerOp := float64((cpu1 - cpu0).Nanoseconds()) / 1e3 / float64(attempted)
	refCPUPerOp := float64((refCPU1 - refCPU0).Nanoseconds()) / 1e3 / float64(refDone)
	// The p99 is over the whole phase and is printed, not gated: on a busy
	// host its quotient spreads too far between runs to hold any bound.
	for _, a := range []struct {
		name      string
		rmtd, ref float64
		unit      string
	}{
		{"ops_per_s", median(rate), median(refRate), "1/s"},
		{"latency_p50_us", median(p50), median(refP50), "us"},
		{"latency_p99_us", percentile(lat, 0.99), percentile(refLat, 0.99), "us"},
		{"cpu_us_per_op", cpuPerOp, refCPUPerOp, "us"},
	} {
		fmt.Fprintf(stdout, "absolute %-16s rmtd %12.2f  reference %12.2f %-3s  quotient %.4f\n", a.name, a.rmtd, a.ref, a.unit, a.rmtd/a.ref)
	}
	res := &result{
		Correct:   lr.failed == 0,
		Attempted: attempted,
		Failed:    lr.failed,
		Metrics: map[string]metric{
			"ops_per_s_rel":   {median(quotients(rate, refRate)), "ratio"},
			"latency_p50_rel": {median(quotients(p50, refP50)), "ratio"},
			"cpu_per_op_rel":  {cpuPerOp / refCPUPerOp, "ratio"},
			"ok_ratio":        {float64(lr.ok) / float64(attempted), "ratio"},
			"rss_peak_mb":     {median(rssPeaks), "MB"},
			"setup_s":         {setupS, "s"},
		},
	}
	printMetrics(stdout, res.Metrics)
	return res, nil
}

// measureWithReference starts the reference server, runs measure and
// stops the server again.
func measureWithReference(stdout io.Writer, w *workload, d *daemon, client *http.Client, dur time.Duration, setupS float64) (*result, error) {
	refOps, err := refWorkload(w.refSizes)
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ref, err := startDaemon("reference server", self, []string{"-reference"}, client)
	if err != nil {
		return nil, err
	}
	defer ref.stop()
	if err := warmUp(client, ref.base, refOps); err != nil {
		return nil, err
	}
	return measure(stdout, w, d, ref, client, refOps, dur, setupS)
}

func printMetrics(stdout io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "metric %-36s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// selfTest shows that the oracles reject wrong replies: for a sample of
// ops it corrupts the expected reply and requires both the byte check and
// the semantic oracle to fail on it. It returns the number rejected.
func selfTest(w *workload) (int, error) {
	rejected := 0
	for _, o := range w.ops[:min(len(w.ops), 8)] {
		wrong := corrupt(o.want)
		if wrong == nil {
			continue
		}
		if bytes.Equal(wrong, o.want) {
			return 0, errors.New("oracle self-test: corrupt reply equals the expected one")
		}
		if err := o.check(wrong); err == nil {
			return 0, fmt.Errorf("oracle self-test: %s accepted a wrong reply: %s", o.path, wrong)
		}
		rejected++
	}
	if rejected == 0 {
		return 0, errors.New("oracle self-test: no reply could be corrupted")
	}
	return rejected, nil
}

// corrupt returns the reply with its first verdict or outcome flipped.
func corrupt(reply []byte) []byte {
	for _, pair := range [][2]string{
		{`"solvable":true`, `"solvable":false`},
		{`"solvable":false`, `"solvable":true`},
		{`"correct":true`, `"correct":false`},
		{`"decided":true`, `"decided":false`},
	} {
		if i := bytes.Index(reply, []byte(pair[0])); i >= 0 {
			out := append([]byte(nil), reply[:i]...)
			out = append(out, pair[1]...)
			return append(out, reply[i+len(pair[0]):]...)
		}
	}
	return nil
}

// ------------------------------------------------------------ traced run

// perLayer lists the -trace 1 metrics and their units. A layer that does
// not run on a workload reports 0.
var perLayer = []struct{ name, unit string }{
	{"server.serve_us", "us"},
	{"server.serve_allocs", "count"},
	{"server.decode_us", "us"},
	{"server.encode_us", "us"},
	{"server.self_us", "us"},
	{"server.child_cover_ratio", "ratio"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.rejected", "count"},
	{"server.timeouts", "count"},
	{"cliutil.parse_us", "us"},
	{"gen.build_us", "us"},
	{"gen.build_allocs", "count"},
	{"gen.apply_delta_us", "us"},
	{"instance.canonical_key_us", "us"},
	{"instance.canonical_key_allocs", "count"},
	{"instance.chain_key_us", "us"},
	{"core.rmt_cut_us", "us"},
	{"core.rmt_cut_allocs", "count"},
	{"zcpa.zpp_cut_us", "us"},
	{"zcpa.zpp_cut_allocs", "count"},
	{"feasibility.verdicts_us", "us"},
	{"core.incremental_us", "us"},
	{"zcpa.incremental_us", "us"},
	{"core.incremental_repaired_ratio", "ratio"},
	{"zcpa.incremental_repaired_ratio", "ratio"},
	{"protocol.assemble_us", "us"},
	{"protocol.assemble_allocs", "count"},
	{"network.run_us", "us"},
	{"network.run_allocs", "count"},
	{"network.messages_per_run", "count"},
	{"network.rounds_per_run", "count"},
	{"core.cut_serve_share", "ratio"},
	{"network.run_serve_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// allocOps is the fixed number of ops the allocation pass replays; the
// exact counts (messages, rounds, repair ratios) come from the same ops, so
// they repeat exactly for a seed.
const allocOps = 64

// traced is the -trace 1 run: a loopback phase for rmtd's own counters,
// then the in-process replay for the per-layer metrics.
func traced(stdout io.Writer, w *workload, d *daemon, client *http.Client, dur time.Duration) (*result, error) {
	vals := map[string]float64{}
	before, err := d.scrape(client)
	if err != nil {
		return nil, err
	}
	lr := drive(client, &cursor{base: d.base, ops: w.ops}, nil, dur/2)
	after, err := d.scrape(client)
	if err != nil {
		return nil, err
	}
	d.stop()
	delta := func(k string) float64 { return after[k] - before[k] }
	hits, misses := delta("rmtd_cache_hits_total"), delta("rmtd_cache_misses_total")
	if hits+misses > 0 {
		vals["server.cache_hit_ratio"] = hits / (hits + misses)
	}
	vals["server.rejected"] = delta("rmtd_rejected_total")
	vals["server.timeouts"] = delta("rmtd_timeouts_total")
	attempted, failed := lr.ok+lr.failed, lr.failed
	if lr.firstErr != nil {
		fmt.Fprintf(stdout, "first loopback failure: %v\n", lr.firstErr)
	}

	srv := server.New(server.Options{LogWriter: io.Discard})
	defer srv.Close()
	serve := func(o op) ([]byte, time.Duration, uint64, error) {
		req := httptest.NewRequest(http.MethodPost, o.path, bytes.NewReader(o.body))
		rec := httptest.NewRecorder()
		m0 := mallocs()
		start := time.Now()
		srv.ServeHTTP(rec, req)
		el := time.Since(start)
		m1 := mallocs()
		if rec.Code != http.StatusOK {
			return nil, 0, 0, fmt.Errorf("in-process %s: status %d: %s", o.path, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes(), el, m1 - m0, nil
	}
	rp := newReplayer(newTracer(traceOff))
	rp.fill = true
	for _, o := range w.warm {
		if _, _, _, err := serve(o); err != nil {
			return nil, err
		}
		if _, err := rp.replay(o.path, o.body); err != nil {
			return nil, err
		}
	}
	rp.fill = false
	mismatches := 0
	var firstMismatch string
	compare := func(o op, served, assembled []byte) {
		attempted++
		if !bytes.Equal(served, assembled) || !bytes.Equal(served, o.want) {
			failed++
			mismatches++
			if firstMismatch == "" {
				firstMismatch = fmt.Sprintf("%s: served %.200s, assembled %.200s", o.path, served, assembled)
			}
		}
	}

	// Allocation pass: a fixed prefix of the ops, one span at a time.
	// ReadMemStats is heavy, so this pass records no times.
	allocTr := newTracer(traceAllocs)
	rp.tr = allocTr
	var serveAllocs []float64
	r0, f0, rz0, fz0 := rp.repairedR, rp.freshR, rp.repairedZ, rp.freshZ
	n := min(allocOps, len(w.ops))
	for _, o := range w.ops[:n] {
		served, _, allocs, err := serve(o)
		if err != nil {
			return nil, err
		}
		serveAllocs = append(serveAllocs, float64(allocs))
		assembled, err := rp.replay(o.path, o.body)
		if err != nil {
			return nil, err
		}
		compare(o, served, assembled)
	}
	vals["server.serve_allocs"] = median(serveAllocs)
	for _, k := range []string{"gen.build", "instance.canonical_key", "core.rmt_cut", "zcpa.zpp_cut", "protocol.assemble", "network.run"} {
		vals[k+"_allocs"] = median(allocTr.calls[k])
	}
	vals["network.messages_per_run"] = mean(allocTr.counts["network.messages"])
	vals["network.rounds_per_run"] = mean(allocTr.counts["network.rounds"])
	vals["core.incremental_repaired_ratio"] = ratio(rp.repairedR-r0, rp.repairedR-r0+rp.freshR-f0)
	vals["zcpa.incremental_repaired_ratio"] = ratio(rp.repairedZ-rz0, rp.repairedZ-rz0+rp.freshZ-fz0)

	// Time pass: each op through ServeHTTP, then through the layers twice,
	// traced and untraced, alternating which goes first, for the overhead
	// ratio.
	timeTr, offTr := newTracer(traceTime), newTracer(traceOff)
	var serveUS, selfUS, cover []float64
	var tracedTotal, untracedTotal time.Duration
	replay := func(tr *tracer, o op) ([]byte, time.Duration, error) {
		rp.tr = tr
		start := time.Now()
		b, err := rp.replay(o.path, o.body)
		return b, time.Since(start), err
	}
	replayed := w.ops[n:]
	budget := time.Now().Add(dur / 2)
	i := 0
	for ; i < len(replayed) && (i == 0 || time.Now().Before(budget)); i++ {
		o := replayed[i]
		served, el, _, err := serve(o)
		if err != nil {
			return nil, err
		}
		if i%2 == 1 {
			_, d, err := replay(offTr, o)
			if err != nil {
				return nil, err
			}
			untracedTotal += d
		}
		assembled, d, err := replay(timeTr, o)
		if err != nil {
			return nil, err
		}
		tracedTotal += d
		if i%2 == 0 {
			_, d, err := replay(offTr, o)
			if err != nil {
				return nil, err
			}
			untracedTotal += d
		}
		covered := timeTr.takeCovered()
		us := float64(el.Nanoseconds()) / 1e3
		serveUS = append(serveUS, us)
		selfUS = append(selfUS, us-float64(covered.Nanoseconds())/1e3)
		cover = append(cover, float64(covered)/float64(el))
		compare(o, served, assembled)
	}
	replayed = replayed[:i]
	vals["trace.overhead_ratio"] = float64(tracedTotal) / float64(untracedTotal)
	serveTotal := sum(serveUS)
	share := func(names ...string) float64 {
		t := 0.0
		for _, k := range names {
			t += sum(timeTr.calls[k])
		}
		return t / serveTotal
	}
	vals["core.cut_serve_share"] = share("core.rmt_cut", "zcpa.zpp_cut", "core.incremental", "zcpa.incremental")
	vals["network.run_serve_share"] = share("network.run")
	vals["server.serve_us"] = median(serveUS)
	vals["server.self_us"] = median(selfUS)
	vals["server.child_cover_ratio"] = median(cover)
	for _, k := range []string{"server.decode", "server.encode", "cliutil.parse", "gen.build", "gen.apply_delta",
		"instance.canonical_key", "instance.chain_key", "core.rmt_cut", "zcpa.zpp_cut", "feasibility.verdicts",
		"core.incremental", "zcpa.incremental", "protocol.assemble", "network.run"} {
		vals[k+"_us"] = median(timeTr.calls[k])
	}

	fmt.Fprintf(stdout, "loopback phase: %d ops; replay: %d ops for allocations, %d timed\n", lr.ok+lr.failed, n, len(replayed))
	fmt.Fprintf(stdout, "replayed bodies byte-identical to in-process ServeHTTP: %d mismatches\n", mismatches)
	if firstMismatch != "" {
		fmt.Fprintf(stdout, "first mismatch: %s\n", firstMismatch)
	}
	fmt.Fprintf(stdout, "child spans cover %.1f%% of server.serve_us (median per request)\n", 100*vals["server.child_cover_ratio"])
	names := make([]string, 0, len(timeTr.calls))
	for k := range timeTr.calls {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "span %-24s %6d calls, total %5.1f%% of total server.serve_us\n", k, len(timeTr.calls[k]), 100*share(k))
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	printMetrics(stdout, res.Metrics)
	return res, nil
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

func formatFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}
