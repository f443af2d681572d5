package client

import (
	"bufio"
	"context"
	"math/rand"
	"net"
	"time"
)

// Dial's retry policy. A failed attempt sleeps dialBase·2^attempt,
// capped at dialMax, with ±50% jitter — full-throttle reconnect storms
// against a restarting node are exactly the thundering herd the lock
// service exists to prevent, so the client does not cause one itself.
const (
	dialTimeout = time.Second // bounds one TCP connect attempt
	dialBase    = 20 * time.Millisecond
	dialMax     = 250 * time.Millisecond
)

// backoff is the one retry delay of the client: base·2^attempt, capped
// at max, with ±50% jitter (so never below base/2).
func backoff(base, max time.Duration, attempt int) time.Duration {
	b := base << uint(attempt)
	if b > max || b <= 0 {
		b = max
	}
	return b/2 + time.Duration(rand.Int63n(int64(b)))
}

// dial connects to addr, retrying with backoff until it succeeds, the
// attempts are spent, or ctx is done (seen between attempts). The
// context deadline also bounds each individual connect.
func dial(ctx context.Context, addr string, attempts int) (*Conn, error) {
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(backoff(dialBase, dialMax, attempt-1))
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			case <-t.C:
			}
		}
		by, _ := ctx.Deadline()
		c, err := DialBy(addr, by)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

// DialBy makes one connect attempt to addr, given until by (no deadline
// if by is zero) and at most dialTimeout. It is the dial of a caller
// with its own retry loop: the Router re-aims at survivors between
// attempts and a cluster heartbeat counts a failed dial as a missed
// beat, so Dial's attempts and backoff underneath either would only
// stretch the failover the cluster works to keep short.
func DialBy(addr string, by time.Time) (*Conn, error) {
	nd := net.Dialer{Timeout: dialTimeout, Deadline: by}
	nc, err := nd.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Conn{nc: nc, br: bufio.NewReaderSize(nc, 4096)}, nil
}
