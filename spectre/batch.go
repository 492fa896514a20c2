package spectre

import (
	"context"
	"fmt"
	"sync"
)

// BatchItem names one program of a batch analysis.
type BatchItem struct {
	Name    string
	Program *Program
}

// BatchResult is the outcome for one batch item. Exactly one of Report
// and Err is meaningful per item — except for a context cancellation
// mid-run, where a partial report accompanies the context error.
type BatchResult struct {
	Name   string
	Report *Report
	Err    error
}

// AnalyzeBatch analyzes a corpus of programs — the Table-2 and
// Kocher-suite shape — fanning the items across the analyzer's worker
// pool: up to WithWorkers programs run concurrently, each on its own
// single-goroutine exploration. Corpus-level fan-out parallelizes
// strictly better than splitting each small exploration, and keeps
// every per-program report identical to a serial Run.
//
// Results are returned in input order regardless of completion order.
// Cancelling the context stops new items from starting (they report
// the context error with a nil report) and interrupts running ones
// (partial report plus the context error), mirroring Run.
func (a *Analyzer) AnalyzeBatch(ctx context.Context, items []BatchItem) []BatchResult {
	reps, errs := fanOut(ctx, a.cfg.Workers, items, func(p *Program) (*Report, error) {
		return a.runWith(ctx, p, a.cfg.Bound, a.cfg.ForwardHazards, nil, 1)
	})
	out := make([]BatchResult, len(items))
	for i, it := range items {
		out[i] = BatchResult{Name: it.Name, Report: reps[i], Err: errs[i]}
	}
	return out
}

// fanOut runs run on every item's program across up to workers
// goroutines (at least one, at most one per item) and returns the
// results and errors in input order. A nil program fails its item
// without running. Once ctx is cancelled no new item starts, and every
// item not yet started reports the context error.
func fanOut[R any](ctx context.Context, workers int, items []BatchItem, run func(*Program) (R, error)) ([]R, []error) {
	if ctx == nil {
		ctx = context.Background()
	}
	vals := make([]R, len(items))
	errs := make([]error, len(items))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < max(1, min(workers, len(items))); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				it := items[i]
				if it.Program == nil {
					errs[i] = fmt.Errorf("spectre: batch item %d (%q): nil program", i, it.Name)
					continue
				}
				vals[i], errs[i] = run(it.Program)
			}
		}()
	}
	for i := range items {
		if err := ctx.Err(); err != nil {
			for j := i; j < len(items); j++ {
				errs[j] = err
			}
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()
	return vals, errs
}
