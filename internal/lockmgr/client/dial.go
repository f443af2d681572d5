package client

import (
	"bufio"
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

// dial connects to addr, retrying with backoff until it succeeds or the
// attempts are spent, and then reports the last attempt's error.
func dial(addr string, attempts int) (*Conn, error) {
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff(dialBase, dialMax, attempt-1))
		}
		var c *Conn
		if c, err = DialBy(addr, time.Time{}); err == nil {
			return c, nil
		}
	}
	return nil, err
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
