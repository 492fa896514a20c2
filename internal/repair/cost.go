package repair

import (
	"sort"

	"pitchfork/internal/core"
	"pitchfork/internal/isa"
)

// The sequential cost model. A mitigation's real price is not how many
// instructions it adds to the text but how many it adds to the
// canonical sequential execution: a fence outside the hot path is free
// at run time, a mask recomputed inside a loop is paid every
// iteration. Cost is therefore the number of instructions the bounded
// sequential replay retires — exactly the directives a sequential
// processor issues.

// costUnbounded ranks programs whose replay faults or never halts
// below every measurable candidate.
const costUnbounded = int(^uint(0) >> 1)

// seqCost estimates the sequential-schedule cost of a program: retired
// instructions of the bounded sequential replay (the behaviour
// certificate's budget).
func seqCost(p *isa.Program, opts Options) int {
	schedule, _, err := core.RunSequential(opts.Machine(p), 2*opts.MaxSeqInstrs)
	if err != nil {
		return costUnbounded
	}
	// When the budget ran out before halting the count is a lower
	// bound, still comparable across candidates replayed under one
	// budget.
	return retiredCount(schedule)
}

// retiredCount counts the retire directives of a schedule — the
// sequential instruction count (every fetch retires exactly once).
func retiredCount(s core.Schedule) int {
	n := 0
	for _, d := range s {
		if d.Kind == core.DRetire {
			n++
		}
	}
	return n
}

// minimizeOrder decides which patch sites the greedy minimizer tries
// to drop first: ascending estimated sequential cost of the program
// WITHOUT the site — the drop that buys the cheapest program is
// attempted before the others, so the surviving 1-minimal set is
// biased toward low sequential overhead rather than low addresses.
func minimizeOrder(orig *isa.Program, mit Mitigation, sites []isa.Addr, opts Options) []isa.Addr {
	order := append([]isa.Addr(nil), sites...)
	if len(sites) < 2 {
		return order
	}
	cost := make(map[isa.Addr]int, len(sites))
	for _, s := range sites {
		cost[s] = costUnbounded
		plan, err := mit.Plan(orig, without(sites, s))
		if err != nil {
			continue
		}
		rw, err := plan.Apply(orig)
		if err != nil {
			continue
		}
		cost[s] = seqCost(rw.Prog, opts)
	}
	sort.SliceStable(order, func(i, j int) bool {
		if cost[order[i]] != cost[order[j]] {
			return cost[order[i]] < cost[order[j]]
		}
		return order[i] < order[j]
	})
	return order
}
