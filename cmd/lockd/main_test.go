package main

import (
	"flag"
	"strings"
	"testing"
)

// maxFlags is the knob budget. It only ever goes down: the daemon is
// below ROADMAP's target of 12 flags, so a change that adds a flag must
// retire one first.
const maxFlags = 11

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
}
