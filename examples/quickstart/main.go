// Quickstart: build the Model A machine, attach the LCU/LRT lock device,
// and run two simulated threads taking a reader-writer lock — with the
// protocol events recorded, so the REQUEST / GRANT / transfer message flow
// of the paper's Figures 4-6 is printed after the run.
package main

import (
	"fmt"
	"os"

	"fairrw/internal/core"
	"fairrw/internal/machine"
	"fairrw/internal/obs"
)

func main() {
	m := machine.ModelA()
	core.New(m, core.Options{})
	events := m.EnableObs(obs.Options{Records: true}, "quickstart")

	lock := m.Mem.AllocLine()
	fmt.Printf("lock word at %#x (home LRT %d)\n\n", lock, m.Mem.HomeOf(lock))

	// A writer and two readers contend for the same lock.
	m.Spawn("writer", 1, 0, func(c *machine.Ctx) {
		c.HwLock(lock, true)
		fmt.Printf("[%8d] writer t1 entered (core %d)\n", c.P.Now(), c.Core())
		c.Compute(500)
		fmt.Printf("[%8d] writer t1 leaving\n", c.P.Now())
		c.HwUnlock(lock, true)
	})
	for i := 0; i < 2; i++ {
		tid := uint64(i + 2)
		corenum := i + 1
		m.Spawn("reader", tid, corenum, func(c *machine.Ctx) {
			c.Compute(100) // arrive after the writer
			c.HwLock(lock, false)
			fmt.Printf("[%8d] reader t%d entered (core %d) — readers share\n", c.P.Now(), tid, c.Core())
			c.Compute(300)
			c.HwUnlock(lock, false)
			fmt.Printf("[%8d] reader t%d left\n", c.P.Now(), tid)
		})
	}

	m.Run()
	fmt.Printf("\nsimulation finished at cycle %d; protocol events:\n", m.K.Now())
	events.WriteFlight(os.Stdout, 0)
}
