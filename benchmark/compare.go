package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// spread is a metric's quartile distance over its slices as a share of
// its median.
func (v value) spread() float64 {
	if v.Value == 0 {
		return 0
	}
	s := (v.Q3 - v.Q1) / v.Value
	if s < 0 {
		s = -s
	}
	return s
}

// verdict compares one metric. change is how much worse new is than old as
// a share of old (negative = better). A metric whose own slices spread
// wider than its bound cannot resolve a difference of that size.
func verdict(d metricDef, old, new value) (v string, change float64) {
	if old.Value == 0 {
		return verdictUnresolved, 0
	}
	change = (new.Value - old.Value) / old.Value
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case old.spread() > d.Bound || new.spread() > d.Bound:
		return verdictUnresolved, change
	case change > d.Bound:
		return verdictWorse, change
	case change < -d.Bound:
		return verdictBetter, change
	}
	return verdictSame, change
}

// compareDocs prints one row per workload and end-to-end metric and
// returns the exit code: 1 if any metric got worse by more than its bound
// or any workload failed a larger share of its ops.
func compareDocs(s *spec, old, new *document, w io.Writer) int {
	var names []string
	for name := range new.Workloads {
		if _, ok := old.Workloads[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	code := 0
	fmt.Fprintf(w, "%-20s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "old", "new", "change", "bound", "verdict")
	for _, name := range names {
		o, n := old.Workloads[name], new.Workloads[name]
		for _, d := range s.EndToEnd {
			ov, ok1 := o.EndToEnd[d.Name]
			nv, ok2 := n.EndToEnd[d.Name]
			if !ok1 || !ok2 {
				continue
			}
			v, change := verdict(d, ov, nv)
			if v == verdictWorse {
				code = 1
			}
			fmt.Fprintf(w, "%-20s %-16s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n", name, d.Name, ov.Value, nv.Value, change*100, d.Bound*100, v)
		}
		if share(n) > share(o) || (o.Correct && !n.Correct) {
			code = 1
			fmt.Fprintf(w, "%-20s %-16s %14.6f %14.6f %27s\n", name, "fail_share", share(o), share(n), verdictWorse)
		}
	}
	if len(names) == 0 {
		fmt.Fprintln(w, "no workload is in both documents")
		return 1
	}
	return code
}

func share(r report) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

func compareFiles(specPath, oldPath, newPath string, w io.Writer) int {
	s, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	old, err := readDocument(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	new, err := readDocument(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	return compareDocs(s, old, new, w)
}
