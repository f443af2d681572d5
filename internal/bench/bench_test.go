package bench

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"fairrw/internal/machine"
)

func TestTable1Renders(t *testing.T) {
	var b bytes.Buffer
	Table1(&b)
	out := b.String()
	for _, want := range []string{"LCU+LRT", "QOLB", "SSB", "direct"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 1 missing %q", want)
		}
	}
}

// TestTable8Renders also checks every Figure 8 row the models' parameters
// determine against machine.Params and coherence.Params, so the printed
// table cannot drift from the simulated machines.
func TestTable8Renders(t *testing.T) {
	var b bytes.Buffer
	Table8(&b)
	out := b.String()
	for _, want := range []string{"186", "315", "8+2", "16-way"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 8 missing %q", want)
		}
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(out, "\n") {
		if cells := regexp.MustCompile(` {2,}`).Split(strings.TrimSpace(line), -1); len(cells) == 3 {
			rows[cells[0]] = cells[1:]
		}
	}
	for col, m := range []*machine.Machine{machine.ModelA(), machine.ModelB()} {
		p, cp := m.P, m.Sys.P
		for label, want := range map[string]string{
			"Cores":                         fmt.Sprintf("%d (%dx%d)", p.Cores, p.Cores/p.CoresPerChip, p.CoresPerChip),
			"Chips":                         fmt.Sprint(p.Cores / p.CoresPerChip),
			"L1 access latency (cycles)":    fmt.Sprint(cp.L1Lat),
			"L2 access latency (cycles)":    fmt.Sprint(cp.L2Lat),
			"Local memory latency (cycles)": fmt.Sprint(p.MemLat),
			"LCU entries":                   fmt.Sprintf("%d+2", p.LCUOrdinary),
			"LCU latency (cycles)":          fmt.Sprint(p.LCULat),
			"LRT modules":                   fmt.Sprint(p.NumMem),
			fmt.Sprintf("LRT entries (%d-way)", p.LRTAssoc): fmt.Sprint(p.LRTEntries),
			"LRT latency (cycles)":                          fmt.Sprint(p.LRTLat),
		} {
			if got := rows[label]; len(got) != 2 || got[col] != want {
				t.Errorf("table 8, model %s: row %q reads %q, want %q", p.Name, label, got, want)
			}
		}
	}
}

func TestFig9SmallRenders(t *testing.T) {
	c := Default()
	c.Iters = 400
	c.Fig9Threads = []int{4}
	var b bytes.Buffer
	c.Fig9(&b, "A")
	if !strings.Contains(b.String(), "lcu-100%w") {
		t.Fatal("figure 9 header missing")
	}
	if !strings.Contains(b.String(), "advantage") {
		t.Fatal("figure 9 summary missing")
	}
}

func TestFig13SmallRenders(t *testing.T) {
	c := Default()
	c.Fig13Runs = 2
	c.Fig13Apps = c.Fig13Apps[1:2] // cholesky only: fastest
	c.FLTSlots = 0
	var b bytes.Buffer
	c.Fig13(&b)
	if !strings.Contains(b.String(), "cholesky") {
		t.Fatal("figure 13 row missing")
	}
	if !strings.Contains(b.String(), "±") {
		t.Fatal("figure 13 confidence interval missing")
	}
}
