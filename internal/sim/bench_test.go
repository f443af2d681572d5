package sim

import (
	"testing"
	"unsafe"
)

// scheduleLoop returns one push+pop step through the event queue at a
// steady depth of pending events, each scheduled depth*gap cycles ahead:
// gap 1 keeps every event on the wheel, a gap that puts depth*gap past
// wheelSize sends every event through the overflow and back.
func scheduleLoop(depth int, gap Time) func() {
	k := New()
	fn := func() {}
	for i := 0; i < depth; i++ {
		k.Schedule(Time(i)*gap, fn)
	}
	return func() {
		k.Schedule(Time(depth)*gap, fn)
		k.RunUntil(k.Now() + gap)
	}
}

// scheduleCases are the queue depths the simulator's traffic sits at
// (sim-micro mostly 7–62 pending, sim-stm 15–126; EXPERIMENTS.md, "Event
// wheel") and a far case: 16 pending, each 2 048 cycles ahead.
var scheduleCases = []struct {
	name  string
	depth int
	gap   Time
}{
	{"depth16", 16, 1},
	{"depth128", 128, 1},
	{"depth256", 256, 1},
	{"far2048", 16, 2048 / 16},
}

// BenchmarkSchedule measures one push+pop cycle through the event queue —
// the kernel's single hottest operation.
func BenchmarkSchedule(b *testing.B) {
	for _, c := range scheduleCases {
		b.Run(c.name, func(b *testing.B) {
			step := scheduleLoop(c.depth, c.gap)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

var kernelSink *Kernel

// TestEventSizeAndScheduleAllocs pins what the queue pays per event: an
// overflow event is five words, and scheduling one (a closure included —
// a func value is pointer-shaped, so the Receiver slot holds it unboxed)
// allocates nothing at any depth, on the wheel or through the overflow.
// New allocates the Kernel alone: the wheel is built on the first push,
// so constructing a machine that never runs does not pay for it.
func TestEventSizeAndScheduleAllocs(t *testing.T) {
	if sz := unsafe.Sizeof(event{}); sz > 40 {
		t.Errorf("sizeof(event) = %d bytes, want <= 40", sz)
	}
	for _, c := range scheduleCases {
		if n := testing.AllocsPerRun(1000, scheduleLoop(c.depth, c.gap)); n != 0 {
			t.Errorf("%s: Schedule+pop allocates %.1f objects per event, want 0", c.name, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { kernelSink = New() }); n != 1 {
		t.Errorf("New allocates %.1f objects, want 1", n)
	}
}

// BenchmarkWaitLoop measures the full context-switch path: two Procs
// alternating via Wait(1), so every Wait runs the event loop and hands
// the thread to the other Proc, whose dispatch is always pending.
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

// BenchmarkWaitBehindEvents measures the zero-switch path: every Wait sits
// behind a receiver event, which the waiting Proc's own goroutine runs
// before its own dispatch resumes it in place.
func BenchmarkWaitBehindEvents(b *testing.B) {
	b.ReportAllocs()
	k := New()
	r := recvFunc(func(uint64) {})
	k.Spawn("waiter", func(p *Proc) {
		for j := 0; j < b.N; j++ {
			k.ScheduleRecv(1, r, 0)
			p.Wait(2)
		}
	})
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
