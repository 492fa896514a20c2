// Work-stealing parallel exploration. The worst-case schedule tree is
// embarrassingly parallel below its fork points — subtrees share no
// mutable state — so the root starts alone on the first worker's LIFO
// deque, and idle workers steal the oldest (largest-subtree) states
// from their peers until the work is spread. Global budgets
// (MaxStates, StopAtFirst, Interrupt) are enforced with atomics, and
// violations are merged in schedule order so reports stay deterministic
// regardless of which worker found what first.
package sched

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pitchfork/internal/core"
)

// dedupShards is the shard count of the fingerprint table; a power of
// two so the shard index is a mask of the (well-mixed) FNV hash.
const dedupShards = 64

// dedupTable is a bounded concurrent set of machine fingerprints.
type dedupTable struct {
	perShard int
	shards   [dedupShards]struct {
		mu   sync.Mutex
		seen map[uint64]struct{}
	}
}

func newDedupTable(maxEntries int) *dedupTable {
	per := maxEntries / dedupShards
	if per < 1 {
		per = 1
	}
	t := &dedupTable{perShard: per}
	for i := range t.shards {
		t.shards[i].seen = make(map[uint64]struct{})
	}
	return t
}

// seen records fp and reports whether it was already present. A full
// shard stops recording — and therefore stops pruning states that hash
// into it — rather than evicting, keeping the memory bound hard and the
// pruning decision stable within a run.
func (t *dedupTable) seen(fp uint64) bool {
	s := &t.shards[fp&(dedupShards-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.seen[fp]; ok {
		return true
	}
	if len(s.seen) < t.perShard {
		s.seen[fp] = struct{}{}
	}
	return false
}

// workerDeque is one worker's double-ended work queue. The owner pushes
// and pops at the tail (depth-first, keeping its frontier small like
// the serial explorer); thieves steal from the head, where the states
// closest to the root — the largest units of remaining work — sit.
type workerDeque struct {
	mu    sync.Mutex
	items []*state
}

func (d *workerDeque) push(s *state) {
	d.mu.Lock()
	d.items = append(d.items, s)
	d.mu.Unlock()
}

func (d *workerDeque) pop() *state {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.items)
	if n == 0 {
		return nil
	}
	s := d.items[n-1]
	d.items[n-1] = nil
	d.items = d.items[:n-1]
	return s
}

func (d *workerDeque) steal() *state {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return nil
	}
	s := d.items[0]
	d.items[0] = nil
	d.items = d.items[1:]
	return s
}

// compareDirectives orders directives by kind, then by their operand
// fields — an arbitrary but total and stable order.
func compareDirectives(a, b core.Directive) int {
	switch {
	case a.Kind != b.Kind:
		return int(a.Kind) - int(b.Kind)
	case a.Taken != b.Taken:
		if a.Taken {
			return 1
		}
		return -1
	case a.Target != b.Target:
		if a.Target < b.Target {
			return -1
		}
		return 1
	case a.I != b.I:
		return a.I - b.I
	case a.From != b.From:
		return a.From - b.From
	case a.Arm != b.Arm:
		return int(a.Arm) - int(b.Arm)
	}
	return 0
}

// compareSchedules orders schedules lexicographically, shorter prefix
// first. Every completed path has a distinct schedule, so this is a
// total order over a run's violations.
func compareSchedules(a, b core.Schedule) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := compareDirectives(a[i], b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// assemble sorts the workers' violations into schedule order (each
// violation's own schedule is its deterministic merge key) and
// finalizes the result. Under StopAtFirst several workers may have
// recorded a violation before the stop flag propagated; the
// schedule-least one is kept so the report matches the option's
// contract.
func assemble(res Result, opts *Options) Result {
	sort.SliceStable(res.Violations, func(i, j int) bool {
		return compareSchedules(res.Violations[i].Schedule, res.Violations[j].Schedule) < 0
	})
	if opts.StopAtFirst && len(res.Violations) > 1 {
		res.Violations = res.Violations[:1]
	}
	return res
}

// exploreParallel drives the work-stealing pool: the root starts alone
// on deques[0], the other workers steal from there as it forks, and
// the workers run until the tree, a budget, or a stop condition is
// exhausted.
func exploreParallel(opts *Options, dedup *dedupTable, root *state) Result {
	workers := opts.Workers
	deques := make([]*workerDeque, workers)
	for i := range deques {
		deques[i] = &workerDeque{}
	}
	deques[0].items = []*state{root}

	var (
		statesN     atomic.Int64
		pathsN      atomic.Int64
		dedupN      atomic.Int64
		pending     atomic.Int64 // states queued or mid-processing
		stop        atomic.Bool  // prompt-exit flag for every worker
		truncated   atomic.Bool
		interrupted atomic.Bool
		violMu      sync.Mutex // serializes the OnViolation callback
	)
	pending.Store(1)
	maxStates := int64(opts.MaxStates)
	workerViols := make([][]Violation, workers)

	var wg sync.WaitGroup
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			self := deques[id]
			// Forks land on the owner's deque as advance produces them;
			// pending counts them before the parent state is retired, so
			// the all-idle exit condition never fires spuriously.
			emit := func(f *state) {
				pending.Add(1)
				self.push(f)
			}
			idle := 0
			for !stop.Load() {
				st := self.pop()
				for off := 1; st == nil && off < workers; off++ {
					st = deques[(id+off)%workers].steal()
				}
				if st == nil {
					if pending.Load() == 0 {
						return
					}
					// Brief spin, then sleep: near the end of a run the
					// losers of the race for the last subtrees should
					// not burn the winners' cores.
					if idle++; idle > 64 {
						time.Sleep(20 * time.Microsecond)
					} else {
						runtime.Gosched()
					}
					continue
				}
				idle = 0
				if opts.Interrupt != nil && opts.Interrupt() {
					interrupted.Store(true)
					stop.Store(true)
					pending.Add(-1)
					return
				}
				if n := statesN.Add(1); n > maxStates {
					statesN.Add(-1)
					truncated.Store(true)
					stop.Store(true)
					pending.Add(-1)
					return
				}
				done, deduped, viol := advance(opts, dedup, st, emit)
				if viol != nil {
					// Record, callback, and stop are one atomic decision
					// under violMu: a violation observed after the stop
					// flag is dropped entirely, so the report never
					// contains a finding the OnViolation stream did not
					// deliver, and StopAtFirst fires the callback for
					// exactly the one finding that survives.
					violMu.Lock()
					if !stop.Load() {
						workerViols[id] = append(workerViols[id], *viol)
						if opts.OnViolation != nil && !opts.OnViolation(*viol) {
							interrupted.Store(true)
							stop.Store(true)
						}
						if opts.StopAtFirst {
							stop.Store(true)
						}
					}
					violMu.Unlock()
				}
				if deduped {
					dedupN.Add(1)
				}
				if done {
					pathsN.Add(1)
					releaseState(st)
				}
				pending.Add(-1)
			}
		}(id)
	}
	wg.Wait()

	res := Result{
		Workers:     workers,
		States:      int(statesN.Load()),
		Paths:       int(pathsN.Load()),
		DedupHits:   int(dedupN.Load()),
		Truncated:   truncated.Load(),
		Interrupted: interrupted.Load(),
	}
	for _, vs := range workerViols {
		res.Violations = append(res.Violations, vs...)
	}
	return assemble(res, opts)
}
