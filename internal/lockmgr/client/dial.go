package client

import (
	"bufio"
	"context"
	"math/rand"
	"net"
	"time"
)

// Dialer dials lockd servers with capped exponential backoff and
// jitter. The zero value is ready to use. A failed attempt sleeps
// Base·2^attempt, capped at Max, with ±50% jitter — full-throttle
// reconnect storms against a restarting node are exactly the thundering
// herd the lock service exists to prevent, so the client does not cause
// one itself.
type Dialer struct {
	// Timeout bounds one TCP connect attempt. Default 1s.
	Timeout time.Duration
	// Attempts is the total number of connect attempts. Default 4.
	Attempts int
	// Base and Max bound the backoff between attempts. Defaults 20ms
	// and 250ms.
	Base, Max time.Duration
}

func (d *Dialer) timeout() time.Duration {
	if d.Timeout > 0 {
		return d.Timeout
	}
	return time.Second
}

func (d *Dialer) attempts() int {
	if d.Attempts > 0 {
		return d.Attempts
	}
	return 4
}

func (d *Dialer) backoff(attempt int) time.Duration {
	base, max := d.Base, d.Max
	if base <= 0 {
		base = 20 * time.Millisecond
	}
	if max <= 0 {
		max = 250 * time.Millisecond
	}
	return backoff(base, max, attempt)
}

// backoff is the one retry delay of the client: base·2^attempt, capped
// at max, with ±50% jitter (so never below base/2).
func backoff(base, max time.Duration, attempt int) time.Duration {
	b := base << uint(attempt)
	if b > max || b <= 0 {
		b = max
	}
	return b/2 + time.Duration(rand.Int63n(int64(b)))
}

// Dial connects to addr, retrying with backoff until it succeeds, the
// attempts are spent, or ctx is done. The context deadline also bounds
// each individual connect.
func (d *Dialer) Dial(ctx context.Context, addr string) (*Conn, error) {
	var nd net.Dialer
	var lastErr error
	for attempt := 0; attempt < d.attempts(); attempt++ {
		if attempt > 0 {
			t := time.NewTimer(d.backoff(attempt - 1))
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			case <-t.C:
			}
		}
		actx, cancel := context.WithTimeout(ctx, d.timeout())
		nc, err := nd.DialContext(actx, "tcp", addr)
		cancel()
		if err == nil {
			return &Conn{nc: nc, br: bufio.NewReaderSize(nc, 4096)}, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}
