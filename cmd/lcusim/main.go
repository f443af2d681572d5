// Command lcusim regenerates the paper's tables and figures from the
// simulator: Figure 1 (mechanism comparison), Figure 8 (model parameters),
// Figures 9-10 (critical-section microbenchmark), Figures 11-12 (STM
// benchmarks) and Figure 13 (applications).
//
// Independent configurations within a figure are fanned out across a
// worker pool (-parallel); results render in deterministic order, so the
// output — including any trace or metrics file — is byte-identical at any
// worker count.
//
// Usage:
//
//	lcusim [-iters N] [-stmops N] [-runs N] [-parallel N]
//	       [-cpuprofile F] [-memprofile F] [-trace F] [-metrics F] <target>...
//	lcusim tracecheck <trace.json>    # validate a trace file (CI smoke)
//
// Targets: table1 table8 fig9a fig9b fig10a fig10b fig11a fig11b
// fig12a fig12b fig13 micro stm all
//
// -trace writes Chrome trace-event JSON: open it at https://ui.perfetto.dev
// (or chrome://tracing) to see per-core, per-LRT and link-occupancy tracks
// for every simulated run. Each run's trace keeps its first 2^18 events;
// when a run has more, lcusim says on stderr how many runs were truncated
// and how many events they dropped. -metrics writes acquire-latency and
// transfer-time histograms, queue-depth samples and per-link occupancy
// bins as JSON.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"fairrw/internal/bench"
	"fairrw/internal/obs"
)

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "lcusim: "+format+"\n", args...)
	os.Exit(1)
}

// create opens an output file, exiting on error. All output files are
// created after target validation but before any sweep runs, so a bad path
// cannot waste a long simulation.
func create(path string) *os.File {
	f, err := os.Create(path)
	if err != nil {
		fatalf("%v", err)
	}
	return f
}

func main() {
	cfg := bench.Default()
	flag.IntVar(&cfg.Iters, "iters", cfg.Iters, "critical-section entries per microbenchmark configuration")
	flag.IntVar(&cfg.STMOps, "stmops", cfg.STMOps, "operations per thread in STM benchmarks")
	flag.IntVar(&cfg.Fig13Runs, "runs", cfg.Fig13Runs, "seeds per Figure 13 configuration")
	flag.IntVar(&cfg.Parallel, "parallel", 0, "sweep workers (0 = one per CPU, 1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto-viewable) to this file")
	metricsOut := flag.String("metrics", "", "write run metrics (histograms, link occupancy) as JSON to this file")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: lcusim [flags] <target>...")
		fmt.Fprintln(os.Stderr, "       lcusim tracecheck <trace.json>  (validate a trace file)")
		fmt.Fprintln(os.Stderr, "targets: table1 table8 fig9a fig9b fig10a fig10b fig11a fig11b fig12a fig12b fig13 micro stm all")
		flag.PrintDefaults()
	}
	flag.Parse()

	targets := flag.Args()
	if len(targets) > 0 && targets[0] == "tracecheck" {
		os.Exit(tracecheck(targets[1:]))
	}
	if len(targets) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	run := map[string]func(){
		"table1": func() { bench.Table1(os.Stdout) },
		"table8": func() { bench.Table8(os.Stdout) },
		"fig9a":  func() { cfg.Fig9(os.Stdout, "A") },
		"fig9b":  func() { cfg.Fig9(os.Stdout, "B") },
		"fig10a": func() { cfg.Fig10(os.Stdout, "A") },
		"fig10b": func() { cfg.Fig10(os.Stdout, "B") },
		"fig11a": func() { cfg.Fig11(os.Stdout, "A") },
		"fig11b": func() { cfg.Fig11(os.Stdout, "B") },
		"fig12a": func() { cfg.Fig12(os.Stdout, "A") },
		"fig12b": func() { cfg.Fig12(os.Stdout, "B") },
		"fig13":  func() { cfg.Fig13(os.Stdout) },
	}
	groups := map[string][]string{
		"micro": {"fig9a", "fig9b", "fig10a", "fig10b"},
		"stm":   {"fig11a", "fig11b", "fig12a", "fig12b"},
		"all": {"table1", "table8", "fig9a", "fig9b", "fig10a", "fig10b",
			"fig11a", "fig11b", "fig12a", "fig12b", "fig13"},
	}

	var expand func(t string) []string
	expand = func(t string) []string {
		if g, ok := groups[t]; ok {
			var out []string
			for _, x := range g {
				out = append(out, expand(x)...)
			}
			return out
		}
		return []string{t}
	}

	// Validate every target before creating files or running anything, so a
	// typo can't waste a long sweep (or truncate an in-flight CPU profile).
	var todo []func()
	for _, t := range targets {
		for _, x := range expand(t) {
			f, ok := run[x]
			if !ok {
				fmt.Fprintf(os.Stderr, "lcusim: unknown target %q\n", x)
				os.Exit(2)
			}
			todo = append(todo, f)
		}
	}

	// Open every output file up front: creation errors exit here, before
	// any sweep has burned CPU.
	var cpuF, memF, traceF, metricsF *os.File
	if *cpuprofile != "" {
		cpuF = create(*cpuprofile)
		defer cpuF.Close()
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			fatalf("%v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		memF = create(*memprofile)
		defer memF.Close()
	}
	if *traceOut != "" {
		traceF = create(*traceOut)
	}
	if *metricsOut != "" {
		metricsF = create(*metricsOut)
	}

	if traceF != nil || metricsF != nil {
		cfg.Obs = &obs.Collector{Opt: obs.Options{
			Records: traceF != nil,
			Metrics: true,
			Cache:   true,
		}}
	}

	for _, f := range todo {
		f()
	}

	if traceF != nil {
		if err := cfg.Obs.WriteChrome(traceF); err != nil {
			fatalf("writing %s: %v", *traceOut, err)
		}
		if err := traceF.Close(); err != nil {
			fatalf("writing %s: %v", *traceOut, err)
		}
		fmt.Fprintf(os.Stderr, "lcusim: trace written to %s (open at https://ui.perfetto.dev)\n", *traceOut)
		if runs, dropped, kept := cfg.Obs.Truncated(); runs > 0 {
			fmt.Fprintf(os.Stderr, "lcusim: trace truncated: %d of %d runs hit the per-run record cap, %d records dropped; each kept its last %d records\n", runs, len(cfg.Obs.Caps), dropped, kept)
		}
	}
	if metricsF != nil {
		if err := cfg.Obs.WriteMetrics(metricsF); err != nil {
			fatalf("writing %s: %v", *metricsOut, err)
		}
		if err := metricsF.Close(); err != nil {
			fatalf("writing %s: %v", *metricsOut, err)
		}
		fmt.Fprintf(os.Stderr, "lcusim: metrics written to %s\n", *metricsOut)
	}
	if memF != nil {
		runtime.GC()
		if err := pprof.WriteHeapProfile(memF); err != nil {
			fatalf("writing %s: %v", *memprofile, err)
		}
	}
}

// tracecheck validates a Chrome trace file: well-formed JSON with a
// traceEvents array holding at least one non-metadata event. Used by the
// CI smoke job.
func tracecheck(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: lcusim tracecheck <trace.json>")
		return 2
	}
	f, err := os.Open(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "lcusim: tracecheck: %v\n", err)
		return 1
	}
	defer f.Close()
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	dec := json.NewDecoder(bufio.NewReader(f))
	if err := dec.Decode(&doc); err != nil {
		fmt.Fprintf(os.Stderr, "lcusim: tracecheck: %s: invalid JSON: %v\n", args[0], err)
		return 1
	}
	events := 0
	for _, e := range doc.TraceEvents {
		if e.Ph != "M" {
			events++
		}
	}
	if events == 0 {
		fmt.Fprintf(os.Stderr, "lcusim: tracecheck: %s: no non-metadata trace events\n", args[0])
		return 1
	}
	fmt.Printf("lcusim: tracecheck: %s ok (%d events, %d non-metadata)\n", args[0], len(doc.TraceEvents), events)
	return 0
}
