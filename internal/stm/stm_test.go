package stm

import (
	"testing"

	"fairrw/internal/machine"
	"fairrw/internal/microbench"
)

func newTM(t *testing.T, engine string) (*machine.Machine, *TM) {
	t.Helper()
	m := machine.ModelA()
	microbench.InstallDevice(m, engine, 0)
	return m, New(m, engine)
}

func TestAtomicBasic(t *testing.T) {
	for _, engine := range []string{"swonly", "lcu", "ssb", "fraser"} {
		t.Run(engine, func(t *testing.T) {
			m, tm := newTM(t, engine)
			o := tm.NewObj(2)
			m.Spawn("t", 1, 0, func(c *machine.Ctx) {
				tm.Atomic(c, func(tx *Txn) {
					tx.Write(o, 0, 41)
					tx.Write(o, 1, 1)
				})
				var sum uint64
				tm.Atomic(c, func(tx *Txn) {
					sum = tx.Read(o, 0) + tx.Read(o, 1)
				})
				if sum != 42 {
					t.Errorf("%s: sum = %d, want 42", engine, sum)
				}
			})
			m.Run()
			if tm.Commits != 2 {
				t.Errorf("%s: commits = %d, want 2", engine, tm.Commits)
			}
		})
	}
}

func TestAtomicIsolation(t *testing.T) {
	// Concurrent increments must not lose updates under any engine.
	for _, engine := range []string{"swonly", "lcu", "fraser"} {
		t.Run(engine, func(t *testing.T) {
			m, tm := newTM(t, engine)
			o := tm.NewObj(1)
			const threads, incs = 8, 25
			for i := 0; i < threads; i++ {
				m.Spawn("t", uint64(i+1), i, func(c *machine.Ctx) {
					for j := 0; j < incs; j++ {
						tm.Atomic(c, func(tx *Txn) {
							tx.Write(o, 0, tx.Read(o, 0)+1)
						})
					}
				})
			}
			m.Run()
			if got := o.RawRead(0); got != threads*incs {
				t.Errorf("%s: counter = %d, want %d (lost updates)", engine, got, threads*incs)
			}
		})
	}
}

func TestShadowWritesInvisibleUntilCommit(t *testing.T) {
	m, tm := newTM(t, "fraser")
	o := tm.NewObj(1)
	m.Spawn("t", 1, 0, func(c *machine.Ctx) {
		tm.Atomic(c, func(tx *Txn) {
			tx.Write(o, 0, 9)
			if o.RawRead(0) != 0 {
				t.Error("write visible before commit")
			}
			if tx.Read(o, 0) != 9 {
				t.Error("own write not visible inside transaction")
			}
		})
		if o.RawRead(0) != 9 {
			t.Error("write not visible after commit")
		}
	})
	m.Run()
}

func TestExplicitAbortRetries(t *testing.T) {
	m, tm := newTM(t, "swonly")
	o := tm.NewObj(1)
	m.Spawn("t", 1, 0, func(c *machine.Ctx) {
		first := true
		attempts := tm.Atomic(c, func(tx *Txn) {
			tx.Write(o, 0, 5)
			if first {
				first = false
				tx.Abort()
			}
		})
		if attempts != 2 {
			t.Errorf("attempts = %d, want 2", attempts)
		}
	})
	m.Run()
	if o.RawRead(0) != 5 {
		t.Error("retried transaction did not commit")
	}
	if tm.Aborts != 1 {
		t.Errorf("aborts = %d, want 1", tm.Aborts)
	}
}

func TestStepBudgetTerminatesRunawayWalk(t *testing.T) {
	m, tm := newTM(t, "fraser")
	tm.StepBudget = 100
	a := tm.NewObj(1)
	a.RawWrite(0, uint64(a.ID())) // self-loop "pointer"
	m.Spawn("t", 1, 0, func(c *machine.Ctx) {
		hops := 0
		done := false
		tm.Atomic(c, func(tx *Txn) {
			if done {
				return // second attempt: succeed trivially
			}
			o := a
			for o != nil && !tx.Aborted() {
				o = tx.tm.Get(int(tx.Read(o, 0)))
				hops++
			}
			done = true
		})
		if hops < 100 || hops > 200 {
			t.Errorf("hops = %d; step budget should have stopped the walk near 100", hops)
		}
	})
	m.Run()
}

func TestVersionsAdvanceEvenly(t *testing.T) {
	m, tm := newTM(t, "swonly")
	o := tm.NewObj(1)
	m.Spawn("t", 1, 0, func(c *machine.Ctx) {
		for i := 0; i < 3; i++ {
			tm.Atomic(c, func(tx *Txn) { tx.Write(o, 0, uint64(i)) })
		}
	})
	m.Run()
	if o.version != 6 || o.version&1 != 0 {
		t.Fatalf("version = %d, want 6 (even, two bumps per commit)", o.version)
	}
}

func TestReadOnlyTxnCheapWithFraser(t *testing.T) {
	// Fraser's invisible readers make read-only commits near-free compared
	// to the lock engine's visible read-locking — the Figure 11 contrast.
	measure := func(engine string) float64 {
		m, tm := newTM(t, engine)
		objs := make([]*Obj, 8)
		for i := range objs {
			objs[i] = tm.NewObj(1)
		}
		m.Spawn("t", 1, 0, func(c *machine.Ctx) {
			for i := 0; i < 20; i++ {
				tm.Atomic(c, func(tx *Txn) {
					for _, o := range objs {
						tx.Read(o, 0)
					}
				})
			}
		})
		m.Run()
		return float64(tm.CommitCycles) / float64(tm.Commits)
	}
	fr := measure("fraser")
	sw := measure("swonly")
	if fr >= sw {
		t.Fatalf("fraser read-only commit (%.0f) should be cheaper than swonly (%.0f)", fr, sw)
	}
}

// TestWordTryLock checks the swonly engine's header RW word: readers
// share it, a writer excludes everyone, and unlocks restore it.
func TestWordTryLock(t *testing.T) {
	m := machine.ModelA()
	a := m.Mem.AllocLine()
	m.Spawn("t", 1, 0, func(c *machine.Ctx) {
		if !tryLockWord(c, a, false) || !tryLockWord(c, a, false) {
			t.Error("two reads of a free word did not both succeed")
		}
		if tryLockWord(c, a, true) {
			t.Error("write succeeded with readers inside")
		}
		unlockWord(c, a, false)
		unlockWord(c, a, false)
		if !tryLockWord(c, a, true) {
			t.Error("write of a free word failed")
		}
		if tryLockWord(c, a, false) || tryLockWord(c, a, true) {
			t.Error("lock succeeded under a writer")
		}
		unlockWord(c, a, true)
		if !tryLockWord(c, a, false) {
			t.Error("read after write unlock failed")
		}
		unlockWord(c, a, false)
		if v := c.Load(a); v != 0 {
			t.Errorf("word = %#x after all unlocks, want 0", v)
		}
	})
	m.Run()
}
