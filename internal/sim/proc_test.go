package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
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
		{"recv-on-parked-proc", func(k *Kernel) {
			k.Spawn("bystander", func(p *Proc) { p.Block() })
			k.Spawn("waiter", func(p *Proc) {
				k.ScheduleRecv(3, recvFunc(func(uint64) { panic("recv boom") }), 0)
				p.Wait(10) // the waiter's own goroutine runs the event
			})
		}, "recv boom"},
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

// TestGoexitEndsRunCaller: runtime.Goexit in a Proc body (t.FailNow, say)
// ends the goroutine that called Run, as it would if the body ran there,
// wherever the thread was passed from, and ends no other Proc; Reset then
// leaves no goroutine behind and the kernel reusable.
func TestGoexitEndsRunCaller(t *testing.T) {
	cases := []struct {
		name  string
		setup func(k *Kernel)
	}{
		{"first-dispatch", func(k *Kernel) {
			k.Spawn("bystander", func(p *Proc) { p.Block() })
			k.Spawn("ticker", func(p *Proc) {
				for {
					p.Wait(1)
				}
			})
			k.Spawn("exiter", func(p *Proc) { runtime.Goexit() })
		}},
		{"after-handing-off", func(k *Kernel) {
			k.Spawn("bystander", func(p *Proc) { p.Block() })
			k.Spawn("exiter", func(p *Proc) {
				p.Wait(2) // the ticker's dispatch at 1 comes first
				runtime.Goexit()
			})
			k.Spawn("ticker", func(p *Proc) {
				for {
					p.Wait(1)
				}
			})
		}},
		{"after-handed-to", func(k *Kernel) {
			exiter := k.Spawn("exiter", func(p *Proc) {
				p.Block()
				runtime.Goexit()
			})
			k.Spawn("waker", func(p *Proc) {
				p.Wait(5)
				exiter.Wake(0)
				p.Wait(1) // hands the thread to exiter
			})
			k.Spawn("bystander", func(p *Proc) { p.Block() })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			k := New()
			tc.setup(k)
			returned := false
			ended := make(chan struct{})
			go func() {
				defer close(ended)
				k.Run()
				returned = true
			}()
			select {
			case <-ended:
			case <-time.After(10 * time.Second):
				t.Fatal("Run's caller goroutine did not end")
			}
			if returned {
				t.Fatal("Run returned; want runtime.Goexit to end its caller's goroutine")
			}
			for _, p := range k.procs {
				if p.Finished() != (p.Name() == "exiter") {
					t.Errorf("%s: finished=%v after the exiter's Goexit", p.Name(), p.Finished())
				}
			}

			k.Reset()
			if n := settledGoroutines(base); n > base {
				t.Errorf("%d goroutines after Reset, %d before", n, base)
			}
			var at Time
			k.Spawn("after", func(p *Proc) {
				p.Wait(5)
				at = p.Now()
			})
			if r := runRecovering(k); r != nil || at != 5 || k.Events() != 1 {
				t.Errorf("kernel not reusable after Goexit+Reset: panic=%v at=%d events=%d", r, at, k.Events())
			}
		})
	}
}

// settledGoroutines returns the goroutine count once it is at most want,
// or after a second: a goroutine that has signalled its end may not have
// left the count yet.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		runtime.Gosched()
	}
}

// TestSwitchCounts pins the loop's coroutine switches: one per resumption
// of another Proc, none while a Proc's own wakeup is the next resumption
// behind receiver and closure events, and one back to the Run caller at
// the horizon.
func TestSwitchCounts(t *testing.T) {
	t.Run("alternating", func(t *testing.T) {
		k := New()
		var from, to uint64
		k.Spawn("a", func(p *Proc) {
			for i := 0; i < 110; i++ {
				if i == 10 {
					from = k.switches
				}
				p.Wait(1)
			}
			to = k.switches
		})
		k.Spawn("b", func(p *Proc) {
			for i := 0; i < 110; i++ {
				p.Wait(1)
			}
		})
		k.Run()
		// 100 Waits of a, each resuming b and then a: 200 resumptions.
		if got := to - from; got != 200 {
			t.Errorf("%d switches for 200 resumptions, want 200", got)
		}
	})
	t.Run("behind-events", func(t *testing.T) {
		k := New()
		ran := 0
		r := recvFunc(func(uint64) { ran++ })
		var first, last uint64
		k.Spawn("waiter", func(p *Proc) {
			first = k.switches
			for i := 0; i < 100; i++ {
				k.ScheduleRecv(1, r, 0)
				k.Schedule(2, func() { ran++ })
				p.Wait(3)
			}
			last = k.switches
		})
		k.Run()
		if ran != 200 || last != first {
			t.Errorf("%d events ran behind 100 Waits with %d switches, want 200 with 0", ran, last-first)
		}
	})
	t.Run("horizon", func(t *testing.T) {
		k := New()
		var seen uint64
		for i := 0; i < 2; i++ {
			k.Spawn("w", func(p *Proc) {
				for {
					seen = k.switches
					p.Wait(1)
				}
			})
		}
		for _, h := range []Time{50, 100} {
			if k.RunUntil(h); k.switches != seen+1 {
				t.Errorf("RunUntil(%d): %d switches after the last Proc ran, want 1", h, k.switches-seen)
			}
		}
		k.Reset()
	})
}
