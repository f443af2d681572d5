package main

import (
	"flag"
	"slices"
	"strings"
	"testing"
)

// maxFlags is the knob budget. It only ever goes down: a change that
// adds a flag must retire one first.
const maxFlags = 8

// TestFlagBudget pins the exact flag set, not just its size: what the
// daemon can derive (loop count, heartbeat, default lease) must not come
// back as a knob.
func TestFlagBudget(t *testing.T) {
	var names []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			names = append(names, f.Name)
		}
	})
	if len(names) > maxFlags {
		t.Fatalf("lockd registers %d flags, budget is %d: %v", len(names), maxFlags, names)
	}
	want := []string{"addr", "admin", "cluster", "grace", "max-lease", "metrics", "slowlock", "version"}
	if !slices.Equal(names, want) {
		t.Fatalf("lockd flags %v, want %v", names, want)
	}
}
