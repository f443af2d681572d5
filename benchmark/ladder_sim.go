package main

import (
	"fmt"
	"time"

	"fairrw/internal/core"
	"fairrw/internal/machine"
	"fairrw/internal/memmodel"
	"fairrw/internal/microbench"
	"fairrw/internal/obs"
	"fairrw/internal/sim"
	"fairrw/internal/topo"
)

// paperLCUGainPct is the paper's reported LCU advantage over SSB on the
// model-A microbenchmark; sim_lcu_gain_pct is printed beside it as the
// reproduction's accuracy figure.
const paperLCUGainPct = 30.6

// kernelRungs time the simulation kernel's two hot operations; every
// simulator workload sits on them.
func kernelRungs(budget time.Duration, out map[string]float64) {
	// One push+pop through the event queue at a steady depth of 256.
	k := sim.New()
	fn := func() {}
	for i := 0; i < 256; i++ {
		k.Schedule(sim.Time(i), fn)
	}
	out["sim.schedule_ns"] = timeOps(budget/2, reps, func(n int) {
		for i := 0; i < n; i++ {
			k.Schedule(256, fn)
			k.RunUntil(k.Now() + 1)
		}
	})
	// The full Proc switch: two Procs alternating on Wait(1).
	out["sim.wait_switch_ns"] = timeOps(budget/2, reps, func(n int) {
		k := sim.New()
		for i := 0; i < 2; i++ {
			k.Spawn("w", func(p *sim.Proc) {
				for j := 0; j < n/2; j++ {
					p.Wait(1)
				}
			})
		}
		k.Run()
	})
}

// find returns the most recent run of the labelled point.
func (in *simInst) find(label string) *simRun {
	for i, c := range in.cfgs {
		if c.label == label {
			return &in.last[i]
		}
	}
	return nil
}

// hostMS is the median host ms per pass spent in the points pick accepts.
func (in *simInst) hostMS(pick func(simCfg) bool) float64 {
	var total float64
	for i, c := range in.cfgs {
		if pick(c) {
			total += median(in.hostByCfg[i])
		}
	}
	return total
}

// microFigures reports sim-micro's simulated figures and its host time by
// lock family. The figures are identical on every pass, so the last pass
// serves.
func (in *simInst) microFigures(out map[string]float64) {
	lcu := in.find("A/lcu/100w")
	out["sim_cycles_per_cs"] = lcu.micro.CyclesPerCS
	out["sim_grant_max_over_min"] = lcu.micro.MaxOverMin
	out["core.transfer_cycles"] = lcu.micro.CyclesPerCS - 100 // minus microbench's default CSWork
	out["topo.messages_per_cs"] = float64(lcu.micro.Messages) / float64(lcu.ops)
	out["ssb.cycles_per_cs"] = in.find("A/ssb/100w").micro.CyclesPerCS
	out["swlocks.mcs_cycles_per_cs"] = in.find("A/mcs/100w").micro.CyclesPerCS
	out["swlocks.mrsw_cycles_per_cs"] = in.find("A/mrsw/25w").micro.CyclesPerCS
	out["microbench.writer_wait_cycles"] = in.find("A/lcu/25w").micro.WriterWaitMean
	var gain float64
	for _, wp := range microWrites {
		l := in.find(fmt.Sprintf("A/lcu/%dw", wp)).micro.CyclesPerCS
		s := in.find(fmt.Sprintf("A/ssb/%dw", wp)).micro.CyclesPerCS
		gain += (s - l) / s
	}
	out["sim_lcu_gain_pct"] = gain / float64(len(microWrites)) * 100
	mcs := in.find("A/mcs/100w")
	out["coherence.l1_hit_share"] = float64(mcs.l1Hits) / float64(mcs.l1Hits+mcs.l1Miss)
	out["microbench.lcu_pass_ms"] = in.hostMS(func(c simCfg) bool { return c.micro.Lock == "lcu" })
	out["microbench.ssb_pass_ms"] = in.hostMS(func(c simCfg) bool { return c.micro.Lock == "ssb" })
}

// stmFigures reports sim-stm's simulated figures (lcu engine) and its host
// time by engine.
func (in *simInst) stmFigures(out map[string]float64) {
	r := in.find("A/rb/lcu").stm
	out["sim_cycles_per_txn"] = r.MeanTxnCycles
	out["stm.exec_cycles_per_txn"] = r.ExecPerTxn
	out["stm.commit_cycles_per_txn"] = r.CommitPerTxn
	out["stm.aborts_per_commit"] = r.AbortsPerCommit
	for i, c := range in.cfgs {
		out["stmbench."+c.stm.Engine+"_pass_ms"] = median(in.hostByCfg[i])
	}
}

// simLadder: each simulator layer under sim-micro on its own, and the cost
// of the simulator's own capture.
func simLadder(lc *ladderCtx) []string {
	out := lc.out
	kernelRungs(lc.rung(0.25), out)
	layerRungs(lc.rung(0.45), out)

	// Capture on against capture off, same point, interleaved.
	m := microbench.NewMachine("A")
	point := *microConfigs(lc.seed)[0].micro
	traced := point
	traced.Obs = obs.Options{Records: true, Metrics: true}
	var off, on series
	deadline := time.Now().Add(lc.rung(0.2))
	for len(off) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		microbench.RunOn(m, point)
		off = append(off, float64(time.Since(t0)))
		t0 = time.Now()
		microbench.RunOn(m, traced)
		on = append(on, float64(time.Since(t0)))
	}
	out["obs.capture_overhead_pct"] = (median(on)/median(off) - 1) * 100
	return nil
}

// layerRungs time topo, coherence and core through their exported calls,
// on a model-A machine.
func layerRungs(budget time.Duration, out map[string]float64) {
	m := machine.ModelA()

	// topo: one congested-latency computation per message leg.
	var at, acc sim.Time
	out["topo.delay_at_ns"] = timeOps(budget/4, reps, func(n int) {
		for i := 0; i < n; i++ {
			acc += m.Net.DelayAt(at, topo.Core(i&31), topo.Mem((i>>5)&31))
			at += 4
		}
	})

	// coherence: reads that miss every cache. One simulated thread cycles
	// through four times the L2's lines, so LRU never has the next one.
	const missLines = 1 << 16
	out["coherence.read_miss_ns"] = timeOps(budget/4, reps, func(n int) {
		m.Reset()
		base := m.Mem.Alloc(missLines*memmodel.LineSize, memmodel.LineSize)
		m.Spawn("reader", 1, 0, func(c *machine.Ctx) {
			for i := 0; i < n; i++ {
				c.Load(base + memmodel.Addr(i%missLines)*memmodel.LineSize)
			}
		})
		m.Run()
	})

	// core: an uncontended hardware lock pair through the LCU and LRT, in
	// host ns and in simulated cycles.
	var cycles sim.Time
	var pairs int
	out["core.hwlock_pair_host_ns"] = timeOps(budget/2, reps, func(n int) {
		m.Reset()
		core.New(m, core.Options{})
		addr := m.Mem.AllocLine()
		m.Spawn("locker", 1, 0, func(c *machine.Ctx) {
			for i := 0; i < n; i++ {
				c.HwLock(addr, true)
				c.HwUnlock(addr, true)
			}
		})
		cycles, pairs = m.Run(), n
	})
	out["core.hwlock_pair_cycles"] = float64(cycles) / float64(pairs)
	calibSink += uint64(acc) // keep the DelayAt results live
}

// stmLadder: the sim-stm list once more with heap allocations counted, and
// the kernel rungs both simulator workloads share.
func stmLadder(lc *ladderCtx) []string {
	in, err := setupSim("sim-stm", lc.seed)
	if err != nil {
		return []string{fmt.Sprintf("ladder: %v", err)}
	}
	deadline := time.Now().Add(lc.rung(0.4))
	var allocs, txns float64
	for txns == 0 || time.Now().Before(deadline) {
		for _, c := range in.cfgs {
			r := in.runPoint(c, true)
			allocs += float64(r.allocs)
			txns += float64(r.ops)
		}
	}
	lc.out["stmbench.allocs_per_txn"] = allocs / txns
	kernelRungs(lc.rung(0.4), lc.out)
	return nil
}
