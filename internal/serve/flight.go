package serve

import (
	"context"
	"sync"
)

// flightGroup coalesces concurrent work with equal keys: the first
// caller starts fn in its own goroutine, later callers with the same
// key share that one result. This is what turns N simultaneous
// identical submissions — the burst a CI fan-out produces before the
// cache has the verdict — into exactly one analysis.
//
// Cancellation is refcounted: the flight runs under its own context
// that stays live while any waiter remains, and is cancelled only when
// the last waiter's request context ends. One impatient client among N
// must not kill the analysis the other N-1 are waiting on; N impatient
// clients must not leave it running for nobody.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
	// wg tracks every flight-runner goroutine, so a draining server can
	// wait for them instead of leaking work past shutdown. Runners never
	// block indefinitely: a runner is refused admission, leaves the
	// queue when its flight is cancelled, or takes a worker slot and
	// runs its analysis to completion, so wait() terminates.
	wg sync.WaitGroup
}

type flight struct {
	done    chan struct{}
	val     verdict
	err     error
	waiters int
	cancel  context.CancelFunc
}

// Do returns fn's result for key, running fn at most once per burst of
// concurrent callers. coalesced reports whether this caller joined a
// flight another caller started. If ctx ends before the flight
// completes, Do returns ctx.Err() immediately — and if this was the
// flight's last waiter, the flight context is cancelled so fn can stop.
func (g *flightGroup) Do(ctx context.Context, key string, fn func(context.Context) (verdict, error)) (val verdict, coalesced bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flight)
	}
	f, joined := g.m[key]
	if joined {
		f.waiters++
		g.mu.Unlock()
	} else {
		fctx, cancel := context.WithCancel(context.Background())
		f = &flight{done: make(chan struct{}), cancel: cancel, waiters: 1}
		g.m[key] = f
		g.mu.Unlock()
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			val, err := fn(fctx)
			g.mu.Lock()
			if g.m[key] == f {
				delete(g.m, key)
			}
			f.val, f.err = val, err
			close(f.done)
			g.mu.Unlock()
			cancel()
		}()
	}

	select {
	case <-f.done:
		return f.val, joined, f.err
	case <-ctx.Done():
		g.mu.Lock()
		f.waiters--
		last := f.waiters == 0
		if last && g.m[key] == f {
			// Unmap the doomed flight so a fresh request starts a fresh
			// analysis instead of inheriting a cancelled one.
			delete(g.m, key)
		}
		g.mu.Unlock()
		if last {
			f.cancel()
		}
		return verdict{}, joined, ctx.Err()
	}
}

// wait blocks until every flight-runner goroutine has finished — the
// waiting half of a graceful drain, once admission is closed.
func (g *flightGroup) wait() { g.wg.Wait() }
