package lockmgr

import "time"

// clock is the manager's one time source: every clock read and the one
// timer in this package's non-test code go through Manager.clk (CI rejects
// a direct time.Now or timer in any other file). New installs real time,
// the package's tests a fake whose hands they move (clock_test.go); it is
// unexported until a caller outside the package needs to drive it.
type clock struct {
	now       func() time.Time
	afterFunc func(time.Duration, func()) timer
}

// timer is what the manager uses of a *time.Timer.
type timer interface {
	Reset(time.Duration) bool
	Stop() bool
}

var realClock = clock{time.Now, func(d time.Duration, f func()) timer { return time.AfterFunc(d, f) }}
