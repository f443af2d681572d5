// Command benchmark is the repository's one benchmark: five named
// workloads over both spines (the lock service and the simulator), the
// end-to-end metrics a user of each would see, and under them a ladder of
// per-layer metrics measured from outside, through exported calls and
// counters only. Everything runs in this one process.
//
//	bash benchmark/run.sh                                  every workload, untraced
//	bash benchmark/run.sh -workload sim-stm -trace 1       one workload, with spans and the ladder
//	bash benchmark/run.sh -compare old.json new.json       verdict per workload and metric
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. README.md in this directory is the glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// header describes the host and the run, so a saved document says where
// its numbers came from.
type header struct {
	CPUModel  string  `json:"cpu_model"`
	NumCPU    int     `json:"num_cpu"`
	GoVersion string  `json:"go_version"`
	Commit    string  `json:"commit"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Slices    int     `json:"slices"`
	Trace     bool    `json:"trace"`
}

// document is what -json writes and -compare reads.
type document struct {
	Header    header            `json:"header"`
	Workloads map[string]report `json:"workloads"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func makeHeader(cfg runCfg) header {
	return header{
		CPUModel: cpuModel(), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: commit(),
		Seed: cfg.seed, Seconds: cfg.seconds, Slices: cfg.plan().slices, Trace: cfg.trace,
	}
}

// result is the line the driver reads: exactly these keys.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]emitted `json:"metrics"`
}

type emitted struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit picks the metrics the run was asked for: every end-to-end metric
// on an untraced run, every per-layer metric on a traced one.
func (r *report) emit(trace bool) result {
	out := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]emitted{}}
	src := r.EndToEnd
	if trace {
		src = r.PerLayer
	}
	for name, v := range src {
		out.Metrics[name] = emitted{Value: v.Value, Unit: v.Unit}
	}
	return out
}

func printReport(r *report) {
	fmt.Printf("\n== %s  (gomaxprocs=%d correct=%v attempted=%d failed=%d)\n", r.Workload, r.Procs, r.Correct, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
	fmt.Printf("  %-34s %14s %-7s %14s %14s %14s %s\n", "end-to-end metric", "value", "unit", "median", "q1", "q3", "slices")
	for _, d := range endToEnd {
		v := r.EndToEnd[d.Name]
		fmt.Printf("  %-34s %14.4f %-7s %14.4f %14.4f %14.4f %d\n", d.Name, v.Value, v.Unit, v.Median, v.Q1, v.Q3, v.Slices)
	}
	if r.PerLayer == nil {
		return
	}
	fmt.Printf("  %-34s %14s %s\n", "per-layer metric", "value", "unit")
	for _, d := range perLayer {
		v := r.PerLayer[d.Name]
		note := ""
		if d.Name == "sim_lcu_gain_pct" && v.Value != 0 {
			note = fmt.Sprintf("   (paper: %.1f)", paperLCUGainPct)
		}
		fmt.Printf("  %-34s %14.4f %s%s\n", d.Name, v.Value, v.Unit, note)
	}
	if isSvc(r.Workload) {
		l := r.PerLayer
		fmt.Printf("  ladder: pair_mean_us %.2f = pipe %.2f + net.residual %.2f + client.self %.2f + queue_wait %.2f  (lockmgr.wait_mean %.2f + residual %.2f)\n",
			l["ladder.pair_mean_us"].Value, l["server.pipe_pair_us"].Value, l["net.residual_us"].Value,
			l["client.self_us"].Value, l["ladder.queue_wait_us"].Value,
			l["lockmgr.wait_mean_us"].Value, l["ladder.residual_us"].Value)
	}
	fmt.Printf("  self time by span (%s):\n", r.TraceFile)
	printSelfTimes(os.Stdout, r.SelfTimes)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all): "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "seed for the generated op streams and simulator seeds")
		seconds  = flag.Float64("seconds", 20, "seconds measured per workload")
		trace    = flag.Int("trace", 0, "1: record spans, run the layer ladder and report per-layer metrics")
		jsonOut  = flag.String("json", "", "write the full document (header, quartiles, both metric sets) to this file")
		smoke    = flag.Bool("smoke", false, "shortest run that exercises every path (200 ms slices)")
		compare  = flag.Bool("compare", false, "compare two -json documents: -compare old.json new.json")
		rebase   = flag.Bool("rebaseline", false, "rewrite "+goldenPath+" from the current simulator")
		specPath = flag.String("spec", "BENCHMARK.json", "declared metrics and bounds, for -compare")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare old.json new.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(*specPath, flag.Arg(0), flag.Arg(1), os.Stdout))
	case *rebase:
		if err := rebaseline(); err != nil {
			fmt.Fprintln(os.Stderr, "rebaseline:", err)
			os.Exit(1)
		}
		fmt.Println("rewrote", goldenPath)
		return
	}

	cfg := runCfg{seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "-seconds must be positive")
		os.Exit(2)
	}
	var defs []*workloadDef
	if *workload == "" {
		for i := range workloads {
			defs = append(defs, &workloads[i])
		}
	} else if w := findWorkload(*workload); w != nil {
		defs = []*workloadDef{w}
	} else {
		fmt.Fprintf(os.Stderr, "unknown workload %q; have %s\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}

	doc := document{Header: makeHeader(cfg), Workloads: map[string]report{}}
	hdr, _ := json.Marshal(doc.Header)
	fmt.Printf("host: %s\n", hdr)
	ok := true
	var last result
	all := map[string]result{}
	for _, w := range defs {
		rep := runWorkload(w, cfg)
		printReport(&rep)
		doc.Workloads[w.name] = rep
		last = rep.emit(cfg.trace)
		all[w.name] = last
		ok = ok && rep.Correct
	}
	if *jsonOut != "" {
		b, err := json.MarshalIndent(doc, "", " ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "write -json:", err)
			os.Exit(1)
		}
	}
	// The result line: one workload's object, or all of them by name.
	var line []byte
	if len(defs) == 1 {
		line, _ = json.Marshal(last)
	} else {
		line, _ = json.Marshal(all)
	}
	fmt.Printf("\n%s\n", line)
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return names
}
