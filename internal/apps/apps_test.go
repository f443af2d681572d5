package apps

import (
	"testing"

	"fairrw/internal/machine"
	"fairrw/internal/sim"
)

func runOnce(t *testing.T, app, lock string, threads int, flt int) sim.Time {
	t.Helper()
	return RunOn(machine.ModelA(), Config{App: app, Lock: lock, Threads: threads, Seed: 7, FLT: flt}).Cycles
}

func TestAllAppsAllLocksComplete(t *testing.T) {
	for _, app := range []string{"fluidanimate", "cholesky", "radiosity"} {
		for _, lock := range []string{"posix", "lcu", "ssb"} {
			cycles := runOnce(t, app, lock, 8, 0)
			if cycles == 0 {
				t.Errorf("%s/%s: zero cycles", app, lock)
			}
		}
	}
}

func TestFluidanimateLCUWins(t *testing.T) {
	// Figure 13: fine-grain contended locks favour the LCU over posix.
	posix := runOnce(t, "fluidanimate", "posix", 32, 0)
	lcu := runOnce(t, "fluidanimate", "lcu", 32, 0)
	if lcu >= posix {
		t.Fatalf("fluidanimate: lcu (%d) should beat posix (%d)", lcu, posix)
	}
}

func TestCholeskyLockInsensitive(t *testing.T) {
	// Figure 13: compute-dominated; lock model changes little (<10%).
	posix := runOnce(t, "cholesky", "posix", 16, 0)
	lcu := runOnce(t, "cholesky", "lcu", 16, 0)
	ratio := float64(posix) / float64(lcu)
	if ratio < 0.90 || ratio > 1.10 {
		t.Fatalf("cholesky should be lock-insensitive: posix=%d lcu=%d (ratio %.2f)",
			posix, lcu, ratio)
	}
}

func TestRadiosityImplicitBiasing(t *testing.T) {
	// Figure 13: thread-private queue locks stay in L1 for posix; the LCU
	// pays remote requests and loses.
	posix := runOnce(t, "radiosity", "posix", 16, 0)
	lcu := runOnce(t, "radiosity", "lcu", 16, 0)
	if lcu <= posix {
		t.Fatalf("radiosity: lcu (%d) should LOSE to posix (%d) without the FLT", lcu, posix)
	}
}

func TestRadiosityFLTRestoresBiasing(t *testing.T) {
	// Section IV-C: the FLT restores the biasing the LCU lacks.
	noFLT := runOnce(t, "radiosity", "lcu", 16, 0)
	withFLT := runOnce(t, "radiosity", "lcu", 16, 4)
	if withFLT >= noFLT {
		t.Fatalf("radiosity: FLT (%d) should improve on plain LCU (%d)", withFLT, noFLT)
	}
}

func TestDeterministicApps(t *testing.T) {
	a := runOnce(t, "fluidanimate", "lcu", 8, 0)
	b := runOnce(t, "fluidanimate", "lcu", 8, 0)
	if a != b {
		t.Fatalf("nondeterministic app run: %d vs %d", a, b)
	}
}
