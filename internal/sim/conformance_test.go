package sim

import (
	"fmt"
	"slices"
	"testing"
)

// recvFunc adapts a func to Receiver for the conformance scenarios.
type recvFunc func(tag uint64)

func (f recvFunc) Recv(tag uint64) { f(tag) }

// TestKernelConformance pins the kernel behaviour a change of Proc-switch
// mechanism must not move. Each scenario logs "label@Now/Events" at every
// observation point; the expected logs were recorded from the
// channel-rendezvous kernel that preceded the iter.Pull one.
func TestKernelConformance(t *testing.T) {
	cases := []struct {
		name string
		run  func(k *Kernel, rec func(label string))
		want []string
	}{
		{
			// A solo Proc takes the Wait fast path (no event) up to the
			// horizon, then queues a dispatch and yields; the next horizon
			// picks it up. An event beyond the first horizon stays queued.
			name: "run-until-horizons",
			run: func(k *Kernel, rec func(string)) {
				k.Spawn("p", func(p *Proc) {
					for i := 0; i < 5; i++ {
						p.Wait(10)
						rec("p")
					}
				})
				k.Schedule(45, func() { rec("fn45") })
				rec(fmt.Sprintf("until25=%d", k.RunUntil(25)))
				rec(fmt.Sprintf("until30=%d", k.RunUntil(30)))
				rec(fmt.Sprintf("until44=%d", k.RunUntil(44)))
				rec(fmt.Sprintf("run=%d", k.Run()))
			},
			want: []string{"p@10/1", "p@20/1", "until25=20@20/1", "p@30/2", "until30=30@30/2",
				"p@40/3", "until44=40@40/3", "fn45@45/4", "p@50/5", "run=50@50/5"},
		},
		{
			// RunUntil called from inside an event callback panics (here
			// the event runs on a's goroutine as a blocks), and the panic
			// surfaces from the outer RunUntil.
			name: "run-until-nested",
			run: func(k *Kernel, rec func(string)) {
				k.Spawn("a", func(p *Proc) {
					for i := 0; i < 3; i++ {
						p.Wait(4)
						rec("a")
					}
				})
				k.Spawn("b", func(p *Proc) {
					for i := 0; i < 3; i++ {
						p.Wait(6)
						rec("b")
					}
				})
				k.Schedule(5, func() {
					rec("outer-fn")
					rec(fmt.Sprintf("inner=%d", k.RunUntil(9)))
				})
				defer func() {
					rec(fmt.Sprintf("until14 panicked: %v", recover()))
					k.Reset()
				}()
				rec(fmt.Sprintf("until14=%d", k.RunUntil(14)))
			},
			want: []string{"a@4/3", "outer-fn@5/4",
				"until14 panicked: sim: RunUntil called inside a run (from an event or a Proc body) or after a panic without Reset@5/4"},
		},
		{
			// BlockTimeout against an early Wake: the woken Proc reports
			// true, its stale timeout still pops (and counts) but resumes
			// nobody, and a second BlockTimeout of the same Proc is not
			// cut short by it. A genuine timeout reports false.
			name: "block-timeout-vs-wake",
			run: func(k *Kernel, rec func(string)) {
				var early *Proc
				early = k.Spawn("early", func(p *Proc) {
					rec(fmt.Sprintf("early-woken=%v", p.BlockTimeout(100)))
					rec(fmt.Sprintf("early-again=%v", p.BlockTimeout(200)))
				})
				k.Spawn("late", func(p *Proc) {
					rec(fmt.Sprintf("late-woken=%v", p.BlockTimeout(50)))
				})
				k.Spawn("waker", func(p *Proc) {
					p.Wait(10)
					rec("waking")
					early.Wake(3)
				})
				rec(fmt.Sprintf("run=%d", k.Run()))
			},
			want: []string{"waking@10/3", "early-woken=true@13/4", "late-woken=false@50/5",
				"early-again=false@213/7", "run=213@213/7"},
		},
		{
			// Everything due at one instant runs in insertion order,
			// whatever its kind: closure, receiver, Proc dispatch, wakeup.
			name: "same-instant-order",
			run: func(k *Kernel, rec func(string)) {
				r := recvFunc(func(tag uint64) { rec(fmt.Sprintf("recv%d", tag)) })
				var sleeper *Proc
				k.Schedule(7, func() { rec("fn1") })
				k.ScheduleRecv(7, r, 1)
				sleeper = k.Spawn("sleeper", func(p *Proc) {
					p.Block()
					rec("sleeper")
				})
				k.Spawn("w", func(p *Proc) {
					p.Wait(7)
					rec("w")
					k.ScheduleRecv(0, r, 3)
					sleeper.Wake(0)
					k.Schedule(0, func() { rec("fn3") })
					p.Yield()
					rec("w-after-yield")
				})
				k.ScheduleRecv(7, r, 2)
				k.Schedule(7, func() { rec("fn2") })
				rec(fmt.Sprintf("run=%d", k.Run()))
			},
			want: []string{"fn1@7/3", "recv1@7/4", "recv2@7/5", "fn2@7/6", "w@7/7", "recv3@7/8",
				"sleeper@7/9", "fn3@7/10", "w-after-yield@7/11", "run=7@7/11"},
		},
		{
			// A Proc that returns while others are queued hands control
			// back like any yield and is seen as finished from then on.
			name: "finish-while-queued",
			run: func(k *Kernel, rec func(string)) {
				var short *Proc
				short = k.Spawn("short", func(p *Proc) {
					p.Wait(1)
					rec("short-done")
				})
				k.Spawn("mid", func(p *Proc) {
					p.Wait(2)
					rec(fmt.Sprintf("mid short.finished=%v", short.Finished()))
					p.Wait(2)
					rec("mid-done")
				})
				k.Spawn("long", func(p *Proc) {
					for i := 0; i < 3; i++ {
						p.Wait(3)
						rec("long")
					}
				})
				rec(fmt.Sprintf("run=%d", k.Run()))
			},
			want: []string{"short-done@1/4", "mid short.finished=true@2/5", "long@3/6",
				"mid-done@4/7", "long@6/8", "long@9/8", "run=9@9/8"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := New()
			var got []string
			tc.run(k, func(label string) {
				got = append(got, fmt.Sprintf("%s@%d/%d", label, k.Now(), k.Events()))
			})
			if !slices.Equal(got, tc.want) {
				t.Errorf("log diverged from the recorded kernel\n got: %q\nwant: %q", got, tc.want)
			}
		})
	}
}
