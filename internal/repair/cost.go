package repair

import (
	"sort"

	"pitchfork/internal/isa"
)

// The sequential cost model. A mitigation's real price is not how many
// instructions it adds to the text but how many it adds to the
// canonical sequential execution: a fence outside the hot path is free
// at run time, a mask recomputed inside a loop is paid every
// iteration. Cost is therefore the number of instructions the bounded
// sequential replay retires — exactly the directives a sequential
// processor issues.

// minimizeOrder decides which patch sites the greedy minimizer tries
// to drop first: ascending estimated sequential cost of the program
// WITHOUT the site — the drop that buys the cheapest program is
// attempted before the others, so the surviving 1-minimal set is
// biased toward low sequential overhead rather than low addresses.
func minimizeOrder(orig *isa.Program, mit Mitigation, sites []isa.Addr, opts Options) []isa.Addr {
	// cost holds the retired count of each trial the behaviour
	// certificate's replay could measure at its budget (a lower bound
	// when the budget ran out first, still comparable across trials);
	// trials that cannot be built or replayed rank last.
	cost := make(map[isa.Addr]int, len(sites))
	for _, s := range sites {
		plan, err := mit.Plan(orig, without(sites, s))
		if err != nil {
			continue
		}
		rw, err := plan.Apply(orig)
		if err != nil {
			continue
		}
		if b, err := runAttributed(opts.Machine(rw.Prog), 2*opts.MaxSeqInstrs); err == nil {
			cost[s] = b.retired
		}
	}
	order := append([]isa.Addr(nil), sites...)
	sort.SliceStable(order, func(i, j int) bool {
		ci, oki := cost[order[i]]
		cj, okj := cost[order[j]]
		if oki != okj {
			return oki
		}
		if ci != cj {
			return ci < cj
		}
		return order[i] < order[j]
	})
	return order
}
