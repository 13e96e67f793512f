// Command rmtbench runs the full experiment suite and prints every table of
// EXPERIMENTS.md (experiments E1–E13 and figure reproductions F1–F2).
//
// Usage:
//
//	rmtbench                       # full suite, default seed/trials
//	rmtbench -trials 100           # heavier randomized sweeps
//	rmtbench -only E2,F1           # a subset of tables
//	rmtbench -workers 1            # sequential trials (tables are identical)
//	rmtbench -benchjson BENCH.json # protocol micro-benchmarks → JSON, no tables
//	rmtbench -compare BENCH.json   # regression guard: non-zero exit when any
//	                               # benchmark is slower/bigger than the baseline
//
// The -cpuprofile and -memprofile flags write pprof profiles covering
// whatever the invocation ran (tables, -benchjson, or -compare); inspect
// them with `go tool pprof`.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"rmt/internal/eval"
	"rmt/internal/network"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rmtbench:", err)
		// Usage errors (bad flags, unknown registry names) exit 2;
		// failures of a valid invocation exit 1 — the rmtsim contract.
		if errors.As(err, &usageError{}) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError marks invalid invocations (unknown engine/schedule names),
// distinguishing them from failures of a valid run.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rmtbench", flag.ContinueOnError)
	var (
		seed       = fs.Int64("seed", 2016, "RNG seed for the randomized sweeps")
		trials     = fs.Int("trials", 60, "random trials per configuration")
		only       = fs.String("only", "", "comma-separated table IDs to run (default: all)")
		workers    = fs.Int("workers", 0, "worker-pool size for randomized trials (0 = one per CPU)")
		benchjson  = fs.String("benchjson", "", "run the protocol micro-benchmarks and write JSON results to this path instead of tables")
		compare    = fs.String("compare", "", "run the micro-benchmarks and fail when any regresses > 25% vs this baseline BENCH.json")
		engine     = fs.String("engine", "lockstep", "execution engine for the experiment runs: "+strings.Join(network.EngineNames(), "|"))
		sched      = fs.String("sched", "sync", "async schedule: "+strings.Join(network.SchedulerNames(), "|"))
		cpuprofile = fs.String("cpuprofile", "", "write a CPU pprof profile of the run to this path")
		memprofile = fs.String("memprofile", "", "write an end-of-run heap pprof profile to this path")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	eng, err := network.ParseEngine(*engine)
	if err != nil {
		return usageError{err}
	}
	var scheduler network.Scheduler
	if eng == network.Async {
		if scheduler, err = network.NewScheduler(*sched, *seed); err != nil {
			return usageError{err}
		}
	} else if *sched != "sync" {
		return usageError{fmt.Errorf("-sched %q requires -engine async", *sched)}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("start CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rmtbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so live objects, not garbage, dominate
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "rmtbench: memprofile:", err)
			}
		}()
	}
	if *benchjson != "" {
		return writeBenchJSON(*benchjson, out)
	}
	if *compare != "" {
		return compareBenchJSON(*compare, out)
	}
	p := eval.Params{Seed: *seed, Trials: *trials, Workers: *workers, Engine: eng, Scheduler: scheduler}

	wanted := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			wanted[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	experiments := []struct {
		id  string
		run func(eval.Params) *eval.Table
	}{
		{"E1", eval.E1JoinAlgebra},
		{"E2", eval.E2PKATightness},
		{"E3", eval.E3Safety},
		{"E4", eval.E4ZCPATightness},
		{"E5", eval.E5KnowledgeSweep},
		{"E6", eval.E6MinimalKnowledge},
		{"E7", eval.E7DecisionProtocol},
		{"E8", eval.E8Scaling},
		{"E9", eval.E9BroadcastTightness},
		{"E10", eval.E10HorizonAblation},
		{"E11", eval.E11RepresentationAblation},
		{"E12", eval.E12Discovery},
		{"E13", eval.E13Exhaustive},
		{"F1", eval.F1BasicFrontier},
		{"F2", eval.F2IndistinguishableRuns},
	}
	ran := 0
	for _, e := range experiments {
		if len(wanted) > 0 && !wanted[e.id] {
			continue
		}
		e.run(p).Render(out)
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no tables matched -only=%q", *only)
	}
	return nil
}
