package stmbench

import (
	"math/rand"
	"testing"

	"fairrw/internal/machine"
	"fairrw/internal/stm"
)

// seqCheck runs a single-threaded op sequence against a Go map oracle.
func seqCheck(t *testing.T, mk func(tm *stm.TM) Structure, inv func() string, ops int, seed int64) {
	t.Helper()
	m := machine.ModelA()
	tm := NewTMOn(m, "fraser")
	s := mk(tm)
	oracle := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(seed))
	m.Spawn("seq", 1, 0, func(c *machine.Ctx) {
		for i := 0; i < ops; i++ {
			key := uint64(rng.Intn(64))
			switch rng.Intn(3) {
			case 0:
				v := uint64(rng.Intn(1000)) + 1
				s.InsertOp(c, key, v)
				oracle[key] = v
			case 1:
				s.DeleteOp(c, key)
				delete(oracle, key)
			default:
				v, ok := s.LookupOp(c, key)
				ov, ook := oracle[key]
				if ok != ook || (ok && v != ov) {
					t.Errorf("op %d: lookup(%d) = (%d,%v), oracle (%d,%v)", i, key, v, ok, ov, ook)
				}
			}
			if msg := inv(); msg != "" {
				t.Fatalf("op %d: invariant: %s", i, msg)
			}
		}
		// Final sweep.
		for key := uint64(0); key < 64; key++ {
			v, ok := s.LookupOp(c, key)
			ov, ook := oracle[key]
			if ok != ook || (ok && v != ov) {
				t.Errorf("final: lookup(%d) = (%d,%v), oracle (%d,%v)", key, v, ok, ov, ook)
			}
		}
	})
	m.Run()
}

func TestRBTreeSequential(t *testing.T) {
	var rb *RBTree
	seqCheck(t, func(tm *stm.TM) Structure { rb = NewRBTree(tm); return rb },
		func() string { return rb.CheckInvariants() }, 400, 11)
}

func TestSkipListSequential(t *testing.T) {
	var sl *SkipList
	seqCheck(t, func(tm *stm.TM) Structure { sl = NewSkipList(tm, 5); return sl },
		func() string { return sl.CheckInvariants() }, 400, 12)
}

func TestHashTableSequential(t *testing.T) {
	var ht *HashTable
	seqCheck(t, func(tm *stm.TM) Structure { ht = NewHashTable(tm, 8); return ht },
		func() string { return ht.CheckInvariants() }, 400, 13)
}

// concurrentCheck runs a parallel mixed workload and verifies structural
// invariants plus linearizable per-key final state via per-key last-writer
// tracking (simplified: just structural + termination).
func concurrentCheck(t *testing.T, engine, structure string) {
	t.Helper()
	w := Workload{
		Model: "A", Engine: engine, Structure: structure,
		MaxNodes: 128, Threads: 8, ReadPct: 60, OpsPerThr: 40, Seed: 99,
	}
	m := machine.ModelA()
	tm := NewTMOn(m, w.Engine)
	s := Build(tm, w)
	Populate(m, s, w)
	done := 0
	for i := 0; i < w.Threads; i++ {
		tid := uint64(i + 1)
		rng := rand.New(rand.NewSource(int64(i) * 31))
		m.Spawn("t", tid, i, func(c *machine.Ctx) {
			for j := 0; j < w.OpsPerThr; j++ {
				key := uint64(rng.Intn(w.MaxNodes))
				switch rng.Intn(3) {
				case 0:
					s.InsertOp(c, key, key+1)
				case 1:
					s.DeleteOp(c, key)
				default:
					s.LookupOp(c, key)
				}
			}
			done++
		})
	}
	m.Run()
	if done != w.Threads {
		t.Fatalf("%s/%s: %d of %d threads finished", engine, structure, done, w.Threads)
	}
	var msg string
	switch v := s.(type) {
	case *RBTree:
		msg = v.CheckInvariants()
	case *SkipList:
		msg = v.CheckInvariants()
	case *HashTable:
		msg = v.CheckInvariants()
	}
	if msg != "" {
		t.Fatalf("%s/%s: invariant violated after concurrency: %s", engine, structure, msg)
	}
	if tm.Commits == 0 {
		t.Fatalf("no commits recorded")
	}
}

func TestConcurrentAllEnginesAllStructures(t *testing.T) {
	for _, engine := range []string{"swonly", "lcu", "fraser", "ssb"} {
		for _, structure := range []string{"rb", "skip", "hash"} {
			t.Run(engine+"/"+structure, func(t *testing.T) {
				concurrentCheck(t, engine, structure)
			})
		}
	}
}

func TestAbortsHappenUnderContention(t *testing.T) {
	w := Workload{
		Model: "A", Engine: "fraser", Structure: "rb",
		MaxNodes: 16, Threads: 8, ReadPct: 0, OpsPerThr: 30, Seed: 3,
	}
	r := RunOn(machine.ModelA(), w)
	if r.AbortsPerCommit == 0 {
		t.Fatal("tiny write-hot tree should produce aborts")
	}
}

func TestRunReportsDissection(t *testing.T) {
	r := RunOn(machine.ModelA(), Workload{
		Model: "A", Engine: "lcu", Structure: "rb",
		MaxNodes: 256, Threads: 4, ReadPct: 75, OpsPerThr: 30, Seed: 5,
	})
	if r.MeanTxnCycles <= 0 || r.ExecPerTxn <= 0 || r.CommitPerTxn <= 0 {
		t.Fatalf("bad dissection: %+v", r)
	}
}

func TestSwOnlyCommitCongestsRootVsLCU(t *testing.T) {
	// The heart of Figure 11: with visible readers, the sw-only engine's
	// commit-phase cost at 16 threads blows up on the tree root; the LCU
	// engine keeps it moderate.
	base := Workload{Model: "A", Structure: "rb", MaxNodes: 256, Threads: 16,
		ReadPct: 75, OpsPerThr: 40, Seed: 21}
	sw := base
	sw.Engine = "swonly"
	lc := base
	lc.Engine = "lcu"
	rsw := RunOn(machine.ModelA(), sw)
	rlc := RunOn(machine.ModelA(), lc)
	if rlc.MeanTxnCycles >= rsw.MeanTxnCycles {
		t.Fatalf("LCU STM (%.0f) should beat sw-only (%.0f) at 16 threads",
			rlc.MeanTxnCycles, rsw.MeanTxnCycles)
	}
}

func TestDeterministicSTM(t *testing.T) {
	w := Workload{Model: "A", Engine: "swonly", Structure: "skip",
		MaxNodes: 128, Threads: 6, ReadPct: 50, OpsPerThr: 25, Seed: 8}
	a := RunOn(machine.ModelA(), w)
	b := RunOn(machine.ModelA(), w)
	if a.TotalCycles != b.TotalCycles || a.MeanTxnCycles != b.MeanTxnCycles {
		t.Fatalf("nondeterministic STM run: %v vs %v", a.TotalCycles, b.TotalCycles)
	}
}
