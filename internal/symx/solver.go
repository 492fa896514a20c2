package symx

import (
	"sort"

	"pitchfork/internal/mem"
)

// Constraint asserts that an expression is truthy (nonzero) or falsy
// (zero).
type Constraint struct {
	E      Expr
	Truthy bool
}

// Holds evaluates the constraint under env.
func (c Constraint) Holds(env Env) bool {
	v := c.E.Eval(env)
	return (v.W != 0) == c.Truthy
}

// String renders the constraint.
func (c Constraint) String() string {
	if c.Truthy {
		return c.E.String() + " ≠ 0"
	}
	return c.E.String() + " = 0"
}

// PathCondition is a conjunction of constraints accumulated along an
// execution path. It is an immutable parent-pointer chain: With shares
// the whole prefix with the receiver, so extending the condition at a
// branch fork costs one node instead of a copy of the conjunction —
// symbolic exploration forks at every input-dependent branch, and the
// per-fork slice copies were the dominant constraint-bookkeeping cost.
// The zero value is the empty (trivially true) condition.
type PathCondition struct{ n *pcNode }

// pcNode is one conjunct; fp caches the Fingerprint fold of the chain
// up to and including this constraint, so fingerprints stay O(1) and
// bit-identical to the historical oldest-first slice fold. vars caches
// the sorted free-variable set of the whole chain, maintained
// incrementally by With and shared with the parent whenever the new
// conjunct introduces no fresh variables (the common case: a branch
// re-tests variables the chain already constrains).
type pcNode struct {
	parent *pcNode
	c      Constraint
	fp     uint64
	depth  int
	vars   []string
}

// With returns the path condition extended by one constraint (the
// receiver is not mutated; prefixes stay shared across forks).
func (p PathCondition) With(c Constraint) PathCondition {
	h := mem.Mix64(p.Fingerprint() ^ Fingerprint(c.E))
	if c.Truthy {
		h = mem.Mix64(h ^ 1)
	} else {
		h = mem.Mix64(h ^ 2)
	}
	var pvars []string
	if p.n != nil {
		pvars = p.n.vars
	}
	return PathCondition{n: &pcNode{parent: p.n, c: c, fp: h, depth: p.Len() + 1, vars: unionVars(pvars, c.E)}}
}

// unionVars returns have ∪ vars(e), sorted — have itself when e adds
// nothing, so extending a condition usually allocates only its node.
func unionVars(have []string, e Expr) []string {
	fresh := missingVars(e, have, nil)
	if len(fresh) == 0 {
		return have
	}
	out := make([]string, 0, len(have)+len(fresh))
	out = append(out, have...)
	out = append(out, fresh...)
	sort.Strings(out)
	return out
}

// missingVars appends to dst the free variables of e that are absent
// from the sorted set have (allocating nothing when there are none).
func missingVars(e Expr, have []string, dst []string) []string {
	switch x := e.(type) {
	case Var:
		if !containsSorted(have, x.Name) {
			for _, s := range dst {
				if s == x.Name {
					return dst
				}
			}
			dst = append(dst, x.Name)
		}
	case Op:
		for _, a := range x.Args {
			dst = missingVars(a, have, dst)
		}
	}
	return dst
}

func containsSorted(have []string, s string) bool {
	i := sort.SearchStrings(have, s)
	return i < len(have) && have[i] == s
}

// Len reports the number of conjuncts.
func (p PathCondition) Len() int {
	if p.n == nil {
		return 0
	}
	return p.n.depth
}

// Holds evaluates the conjunction under env.
func (p PathCondition) Holds(env Env) bool {
	for n := p.n; n != nil; n = n.parent {
		if !n.c.Holds(env) {
			return false
		}
	}
	return true
}

// Fingerprint folds the conjunction to 64 bits, structurally and
// order-sensitively — one hash serving both the solver's cache key
// and the symbolic exploration domain's configuration
// fingerprints, so the two can never drift apart. The fold is cached
// per node, making this O(1).
func (p PathCondition) Fingerprint() uint64 {
	if p.n == nil {
		return mem.HashSeed
	}
	return p.n.fp
}

// Vars returns the free variables of the conjunction, sorted. The
// slice is cached on the chain and shared with conditions extending
// this one — callers must not mutate it.
func (p PathCondition) Vars() []string {
	if p.n == nil {
		return nil
	}
	return p.n.vars
}

// parent returns the condition without its newest conjunct.
func (p PathCondition) parent() PathCondition {
	if p.n == nil {
		return PathCondition{}
	}
	return PathCondition{n: p.n.parent}
}

// conjuncts returns the chain oldest-first.
func (p PathCondition) conjuncts() []Constraint {
	out := make([]Constraint, p.Len())
	for n, i := p.n, len(out)-1; n != nil; n, i = n.parent, i-1 {
		out[i] = n.c
	}
	return out
}

// Solver searches for satisfying assignments of path conditions in two
// steps: an interval + known-bits propagation pre-pass over the
// conjunction (seeded incrementally from the parent condition's
// fixpoint) that settles definite UNSAT and narrows each variable's
// domain, then one deterministic depth-first search over short
// per-variable candidate lists drawn from those domains (see search).
// Sound for SAT answers (a returned model always satisfies the
// constraints) and for propagation UNSAT (empty domains are a proof);
// a search that runs out of its node budget is "unknown".
//
// Results are memoized in a bounded cache keyed by the path
// condition's fingerprint, and both steps are pure functions of the
// query: answers are independent of call order and cache state, which
// is what lets one Solver be shared across the exploration engine's
// worker goroutines while keeping parallel symbolic runs bit-identical
// to serial ones. Returned models are shared with the cache — callers
// must not mutate them.
type Solver struct {
	cache    *modelCache
	counters solverCounters
}

// NewSolver returns a solver with an empty cache.
func NewSolver() *Solver {
	return &Solver{cache: newModelCache()}
}

// Fingerprint folds an expression tree to 64 bits, structurally and
// label-inclusive: structurally equal expressions hash equal. The
// solver's cache keys and the symbolic domain's configuration
// fingerprints (exploration dedup) both build on it.
func Fingerprint(e Expr) uint64 {
	switch x := e.(type) {
	case Const:
		h := mem.Mix64(mem.HashSeed ^ 1)
		h = mem.Mix64(h ^ x.V.W)
		return mem.Mix64(h ^ uint64(x.V.L))
	case Var:
		h := mem.Mix64(mem.HashSeed ^ 2)
		for i := 0; i < len(x.Name); i++ {
			h = mem.Mix64(h ^ uint64(x.Name[i]))
		}
		return mem.Mix64(h ^ uint64(x.L))
	case Op:
		h := mem.Mix64(mem.HashSeed ^ 3)
		h = mem.Mix64(h ^ uint64(x.Code))
		for _, a := range x.Args {
			h = mem.Mix64(h ^ Fingerprint(a))
		}
		return h
	}
	return mem.Mix64(mem.HashSeed ^ 4)
}

// Solve searches for a model of p. ok=false means no model was found
// within the budget (which may be UNSAT or just hard). The returned
// model is shared with the solver's cache; callers must not mutate it.
func (s *Solver) Solve(p PathCondition) (Env, bool) {
	e := s.query(p)
	return e.env, e.ok
}

// SolveWith searches for a model of p that additionally pins e to the
// word want — the primitive behind targeted address concretization.
func (s *Solver) SolveWith(p PathCondition, e Expr, want mem.Word) (Env, bool) {
	pinned := p.With(Constraint{E: Apply(eqOp(), e, C(mem.Pub(want))), Truthy: true})
	return s.Solve(pinned)
}

// Feasible reports whether a model of p was found within budget.
func (s *Solver) Feasible(p PathCondition) bool {
	return s.query(p).ok
}

// query answers a solve through the memo cache. Entries are verified
// against their query before use (SAT hits must still satisfy p, in
// case of a fingerprint collision); on a miss the chain is solved
// recursively, parent first, so a result never depends on what happens
// to be cached.
func (s *Solver) query(p PathCondition) *solveEntry {
	s.counters.queries.Add(1)
	if p.n == nil {
		return emptyEntry
	}
	if e, ok := s.cache.get(p.n.fp); ok {
		if !e.ok || p.Holds(e.env) {
			s.counters.cacheHits.Add(1)
			return e
		}
	}
	e := s.solveFresh(p)
	s.cache.put(p.n.fp, e)
	return e
}

// solveFresh propagates and searches a condition not in the cache.
func (s *Solver) solveFresh(p PathCondition) *solveEntry {
	vars := p.Vars()
	par := p.parent()
	var pe *solveEntry
	if par.n != nil {
		pe = s.query(par)
		if pe.unsat {
			// A superset of an unsatisfiable conjunction is unsatisfiable.
			s.counters.definiteUnsats.Add(1)
			return &solveEntry{unsat: true}
		}
	}
	vidx := make(map[string]int, len(vars))
	for i, v := range vars {
		vidx[v] = i
	}
	cons := p.conjuncts()

	// Propagation, seeded from the parent's fixpoint (⊤ for fresh
	// variables).
	doms := make([]vdom, len(vars))
	for i := range doms {
		doms[i] = fullDom
	}
	fromParent := false
	if pe != nil && pe.doms != nil {
		pvars := par.Vars()
		for i, j := 0, 0; i < len(pvars); i++ {
			for vars[j] != pvars[i] {
				j++
			}
			doms[j] = pe.doms[i]
		}
		fromParent = true
	}
	if !propagate(cons, vidx, doms, fromParent) {
		s.counters.definiteUnsats.Add(1)
		return &solveEntry{doms: doms, unsat: true}
	}
	for i := range doms {
		if !doms[i].isFull() {
			s.counters.propPruned.Add(1)
			break
		}
	}

	ec := newEvalCtx(vars, cons, vidx)
	ok, evals := ec.search(doms)
	s.counters.probeIters.Add(evals)
	if ok {
		return &solveEntry{doms: doms, env: ec.env, ok: true}
	}
	return &solveEntry{doms: doms}
}
