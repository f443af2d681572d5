package microbench

import "testing"

func run(t *testing.T, cfg Config) Result {
	t.Helper()
	if cfg.TotalIters == 0 {
		cfg.TotalIters = 1600
	}
	return RunOn(NewMachine(cfg.Model), cfg)
}

func TestAllLocksComplete(t *testing.T) {
	for _, lock := range []string{"lcu", "ssb", "tas", "tatas", "mcs", "mrsw", "posix"} {
		r := run(t, Config{Model: "A", Lock: lock, Threads: 8, WritePct: 100})
		if r.CyclesPerCS <= 0 {
			t.Errorf("%s: cycles/CS = %v", lock, r.CyclesPerCS)
		}
		total := 0
		for _, n := range r.PerThread {
			total += n
		}
		if total != 1600/8*8 {
			t.Errorf("%s: executed %d CS, want %d", lock, total, 1600)
		}
	}
}

func TestReadScalingLCU(t *testing.T) {
	w100 := run(t, Config{Model: "A", Lock: "lcu", Threads: 16, WritePct: 100})
	w25 := run(t, Config{Model: "A", Lock: "lcu", Threads: 16, WritePct: 25})
	if w25.CyclesPerCS >= w100.CyclesPerCS {
		t.Fatalf("reader concurrency should reduce cycles/CS: 100%%w=%.0f 25%%w=%.0f",
			w100.CyclesPerCS, w25.CyclesPerCS)
	}
}

func TestLCUBeatsSSBMutex(t *testing.T) {
	// Figure 9a, 100% writes: LCU outperforms SSB (direct transfer vs
	// release+re-poll round trips).
	lcu := run(t, Config{Model: "A", Lock: "lcu", Threads: 16, WritePct: 100})
	sb := run(t, Config{Model: "A", Lock: "ssb", Threads: 16, WritePct: 100})
	if lcu.CyclesPerCS >= sb.CyclesPerCS {
		t.Fatalf("LCU (%.0f) should beat SSB (%.0f) at 100%% writes",
			lcu.CyclesPerCS, sb.CyclesPerCS)
	}
}

func TestSSBCollapsesOnModelB(t *testing.T) {
	// Figure 9b: SSB's remote retries saturate inter-chip links once the
	// contenders span chips; the LCU's local spin does not.
	lcu := run(t, Config{Model: "B", Lock: "lcu", Threads: 24, WritePct: 100})
	sb := run(t, Config{Model: "B", Lock: "ssb", Threads: 24, WritePct: 100})
	if sb.CyclesPerCS < lcu.CyclesPerCS*1.5 {
		t.Fatalf("SSB on model B (%.0f) should collapse vs LCU (%.0f)",
			sb.CyclesPerCS, lcu.CyclesPerCS)
	}
}

func TestLCUBeatsMCS(t *testing.T) {
	// Section IV-A: >2x over software MCS.
	lcu := run(t, Config{Model: "A", Lock: "lcu", Threads: 16, WritePct: 100})
	mcs := run(t, Config{Model: "A", Lock: "mcs", Threads: 16, WritePct: 100})
	if mcs.CyclesPerCS < lcu.CyclesPerCS*1.5 {
		t.Fatalf("MCS (%.0f) should be well above LCU (%.0f)",
			mcs.CyclesPerCS, lcu.CyclesPerCS)
	}
}

func TestMRSWReaderCounterHotspot(t *testing.T) {
	// Section IV-A: MRSW gets worse as the read share rises; LCU improves.
	mrswW := run(t, Config{Model: "A", Lock: "mrsw", Threads: 16, WritePct: 100})
	mrswR := run(t, Config{Model: "A", Lock: "mrsw", Threads: 16, WritePct: 25})
	lcuR := run(t, Config{Model: "A", Lock: "lcu", Threads: 16, WritePct: 25})
	if mrswR.CyclesPerCS < mrswW.CyclesPerCS*0.8 {
		t.Logf("note: MRSW at 25%% writes = %.0f vs 100%% = %.0f", mrswR.CyclesPerCS, mrswW.CyclesPerCS)
	}
	if mrswR.CyclesPerCS < 2*lcuR.CyclesPerCS {
		t.Fatalf("MRSW reader path (%.0f) should be far slower than LCU (%.0f)",
			mrswR.CyclesPerCS, lcuR.CyclesPerCS)
	}
}

func TestQueueLockPreemptionAnomaly(t *testing.T) {
	// Figure 10: beyond 32 threads the MCS lock hits the preemption
	// anomaly; the LCU degrades gracefully via grant timeouts.
	mcsOver := run(t, Config{Model: "A", Lock: "mcs", Threads: 40, WritePct: 100})
	lcuOver := run(t, Config{Model: "A", Lock: "lcu", Threads: 40, WritePct: 100})
	if mcsOver.CyclesPerCS < 3*lcuOver.CyclesPerCS {
		t.Fatalf("MCS oversubscribed (%.0f) should blow up vs LCU (%.0f)",
			mcsOver.CyclesPerCS, lcuOver.CyclesPerCS)
	}
}

func TestFairnessLCUvsSSB(t *testing.T) {
	lcu := run(t, Config{Model: "A", Lock: "lcu", Threads: 16, WritePct: 100})
	if lcu.MaxOverMin > 1.6 {
		t.Fatalf("LCU unfairness %.2f too high", lcu.MaxOverMin)
	}
}

func TestNoIterationsYieldsErrNotNaN(t *testing.T) {
	// Threads <= 0 can never complete a critical section; the result must
	// carry ErrNoIterations with zeroed metrics, not NaN/Inf.
	r := RunOn(NewMachine("A"), Config{Model: "A", Lock: "lcu", Threads: 0, WritePct: 100})
	if r.Err != ErrNoIterations {
		t.Fatalf("Err = %v, want ErrNoIterations", r.Err)
	}
	if r.CyclesPerCS != 0 || r.TotalCycles != 0 {
		t.Fatalf("metrics not zeroed: cycles/CS=%v total=%v", r.CyclesPerCS, r.TotalCycles)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := run(t, Config{Model: "A", Lock: "lcu", Threads: 8, WritePct: 50, Seed: 7})
	b := run(t, Config{Model: "A", Lock: "lcu", Threads: 8, WritePct: 50, Seed: 7})
	if a.TotalCycles != b.TotalCycles {
		t.Fatalf("nondeterministic: %d vs %d", a.TotalCycles, b.TotalCycles)
	}
}
