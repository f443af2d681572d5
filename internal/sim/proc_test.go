package sim

import (
	"runtime"
	"strings"
	"testing"
)

// TestResetReleasesParkedProcs: Procs still parked when the kernel is reset
// must exit, not stay parked forever. With nothing stopping them this loop
// used to leave 800 goroutines behind.
func TestResetReleasesParkedProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New()
	unwound := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 16; i++ {
			k.Spawn("parked", func(p *Proc) {
				defer func() { unwound++ }()
				p.Block()
				t.Error("a stopped Proc resumed its body")
			})
		}
		k.Run()
		k.Reset()
	}
	if unwound != 50*16 {
		t.Errorf("%d bodies unwound, want %d", unwound, 50*16)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after 50 spawn/run/reset rounds, %d before", n, base)
	}

	// A Proc stopped before its first dispatch never runs its body.
	k.Spawn("unstarted", func(p *Proc) { t.Error("body ran after Reset") })
	k.Reset()
	if k.Run() != 0 || k.Events() != 0 {
		t.Errorf("kernel not empty after Reset: now=%d events=%d", k.Now(), k.Events())
	}
}

// runRecovering runs k and returns the value Run panicked with, or nil.
func runRecovering(k *Kernel) (r any) {
	defer func() { r = recover() }()
	k.Run()
	return nil
}

// TestPanicsReachRunCaller pins where a panic raised during a run
// surfaces: in the goroutine that called Run, whether it came from a Proc
// body, from a kernel call inside one, or from the kernel's own event
// budget — and that Reset afterwards leaves the kernel usable.
func TestPanicsReachRunCaller(t *testing.T) {
	cases := []struct {
		name  string
		setup func(k *Kernel)
		want  string
	}{
		{"proc-body", func(k *Kernel) {
			k.Spawn("bystander", func(p *Proc) { p.Block() })
			k.Spawn("bad", func(p *Proc) {
				p.Wait(1)
				panic("boom")
			})
		}, "boom"},
		{"wake-unblocked", func(k *Kernel) {
			busy := k.Spawn("busy", func(p *Proc) { p.Wait(1000) })
			k.Spawn("waker", func(p *Proc) { busy.Wake(0) })
		}, "not blocked"},
		{"event-budget", func(k *Kernel) {
			k.MaxEvents = 100
			for i := 0; i < 2; i++ { // two, so every Wait is an event
				k.Spawn("spinner", func(p *Proc) {
					for {
						p.Wait(1)
					}
				})
			}
		}, "event budget exceeded"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			k := New()
			tc.setup(k)
			r := runRecovering(k)
			if s, _ := r.(string); !strings.Contains(s, tc.want) {
				t.Fatalf("Run panicked with %v, want a string containing %q", r, tc.want)
			}

			k.Reset()
			k.MaxEvents = 0
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%d goroutines after Reset, %d before", n, base)
			}
			var at Time
			k.Spawn("after", func(p *Proc) {
				p.Wait(5)
				at = p.Now()
			})
			if r := runRecovering(k); r != nil || at != 5 || k.Events() != 1 {
				t.Errorf("kernel not reusable after panic+Reset: panic=%v at=%d events=%d", r, at, k.Events())
			}
		})
	}
}
