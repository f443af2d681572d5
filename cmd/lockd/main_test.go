package main

import (
	"flag"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fairrw/internal/lockmgr"
	"fairrw/internal/lockmgr/client"
	"fairrw/internal/lockmgr/cluster"
	"fairrw/internal/lockmgr/server"
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

// TestConfigBudget pins the settable fields of the service's config
// structs, the library side of the flag budget: a change that adds a
// field must retire one first, and what the code can derive (heartbeat,
// boot grace, keepalive period, re-aim budget and backoff) stays a
// constant.
func TestConfigBudget(t *testing.T) {
	for _, tc := range []struct {
		cfg  any
		want []string
	}{
		{lockmgr.Config{}, []string{"MaxLease", "IdleTTL", "Recorder", "SlowLock", "SlowLockFn"}},
		{server.Config{}, []string{"Workers", "Recorder", "Cluster"}},
		{cluster.Config{}, []string{"Self", "Members", "Manager", "Logf"}},
		{client.RouterConfig{}, []string{"Seeds", "Lease"}},
	} {
		typ := reflect.TypeOf(tc.cfg)
		var names []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				names = append(names, f.Name)
			}
		}
		if !slices.Equal(names, tc.want) {
			t.Errorf("%v fields %v (%d), want %v (%d)", typ, names, len(names), tc.want, len(tc.want))
		}
	}
}
