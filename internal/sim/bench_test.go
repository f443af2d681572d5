package sim

import (
	"testing"
	"unsafe"
)

// scheduleLoop returns BenchmarkSchedule's step: one push+pop cycle at a
// steady-state depth of 256 pending events.
func scheduleLoop() func() {
	k := New()
	fn := func() {}
	for i := 0; i < 256; i++ {
		k.Schedule(Time(i), fn)
	}
	return func() {
		k.Schedule(256, fn)
		k.RunUntil(k.Now() + 1)
	}
}

// BenchmarkSchedule measures one push+pop cycle through the event queue at
// a steady-state depth of 256 pending events — the kernel's single hottest
// operation.
func BenchmarkSchedule(b *testing.B) {
	step := scheduleLoop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestEventSizeAndScheduleAllocs pins what every heap sift pays for: an
// event is five words, and scheduling one (a closure included — a func
// value is pointer-shaped, so the Receiver slot holds it unboxed)
// allocates nothing.
func TestEventSizeAndScheduleAllocs(t *testing.T) {
	if sz := unsafe.Sizeof(event{}); sz > 40 {
		t.Errorf("sizeof(event) = %d bytes, want <= 40", sz)
	}
	if n := testing.AllocsPerRun(1000, scheduleLoop()); n != 0 {
		t.Errorf("Schedule+pop allocates %.1f objects per event, want 0", n)
	}
}

// BenchmarkWaitLoop measures the full context-switch path: two Procs
// alternating via Wait(1), so every Wait goes through the scheduler (the
// other Proc always has a pending event).
func BenchmarkWaitLoop(b *testing.B) {
	b.ReportAllocs()
	k := New()
	for i := 0; i < 2; i++ {
		k.Spawn("w", func(p *Proc) {
			for j := 0; j < b.N; j++ {
				p.Wait(1)
			}
		})
	}
	b.ResetTimer()
	k.Run()
}

// BenchmarkWaitLoopSolo measures Wait when the Proc is the only runnable
// entity — the common case during single-threaded simulation phases.
func BenchmarkWaitLoopSolo(b *testing.B) {
	b.ReportAllocs()
	k := New()
	k.Spawn("solo", func(p *Proc) {
		for j := 0; j < b.N; j++ {
			p.Wait(1)
		}
	})
	b.ResetTimer()
	k.Run()
}
