package symx

import (
	"fmt"
	"slices"
	"sort"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

func eqOp() isa.Opcode { return isa.OpEq }

// Memory is a symbolic data memory: a word-granular map from concrete
// addresses to symbolic expressions. Addresses are always concrete —
// symbolic addresses are concretized before access, mirroring angr's
// behaviour as described in §4.2 of the paper ("angr concretizes
// addresses for memory operations instead of keeping them symbolic").
//
// Like the concrete mem.Memory, the representation is copy-on-write:
// Clone is O(1) and each fork pays only for the cells it writes, which
// is what keeps symbolic exploration forks (path-condition splits,
// store concretizations) cheap.
type Memory struct {
	m mem.CowMap[mem.Word, Expr]
	// secret is the sorted set of addresses whose expression carries a
	// secret label — the concretizer's targets, kept current by Write.
	// A slice is never modified once installed: Write installs a fresh
	// one when a cell's secret-ness changes, so clones share it safely.
	secret []mem.Word
	// sum is the order-independent sum of chainCellHash over all
	// mapped cells — the memory half of the symbolic configuration
	// fingerprint, activated lazily by the first HashSum call and
	// maintained incrementally by Write from then on.
	sum    uint64
	hashed bool
}

// NewMemory returns an empty symbolic memory.
func NewMemory() *Memory { return &Memory{} }

// Read returns the expression at a; unmapped cells read as public 0.
func (m *Memory) Read(a mem.Word) Expr {
	if e, ok := m.m.Lookup(a); ok {
		return e
	}
	return Zero
}

// Write sets the cell at a.
func (m *Memory) Write(a mem.Word, e Expr) {
	old, existed := m.m.Set(a, e)
	if m.hashed {
		if existed {
			m.sum -= chainCellHash(a, old)
		}
		m.sum += chainCellHash(a, e)
	}
	k, wasSecret := slices.BinarySearch(m.secret, a)
	switch isSecret := e.Label().IsSecret(); {
	case isSecret && !wasSecret:
		m.secret = slices.Concat(m.secret[:k], []mem.Word{a}, m.secret[k:])
	case wasSecret && !isSecret:
		m.secret = slices.Concat(m.secret[:k], m.secret[k+1:])
	}
}

// Contains reports whether a is mapped.
func (m *Memory) Contains(a mem.Word) bool {
	_, ok := m.m.Lookup(a)
	return ok
}

// Clone returns an independent copy in O(1): the private overlay is
// frozen into the shared chain (expressions are immutable and shared
// throughout).
func (m *Memory) Clone() *Memory {
	return &Memory{m: m.m.Fork(), secret: m.secret, sum: m.sum, hashed: m.hashed}
}

// HashSum folds the memory into an order-independent 64-bit sum over
// structural expression fingerprints — the symbolic configuration
// fingerprint behind the exploration engine's dedup table. The first
// call walks the cells once; afterwards Write maintains the sum
// incrementally, so fingerprinting a state no longer re-hashes every
// cell's expression tree.
func (m *Memory) HashSum() uint64 {
	if !m.hashed {
		m.hashed = true
		m.sum = 0
		m.m.FlatEach(func(a mem.Word, e Expr) {
			m.sum += chainCellHash(a, e)
		})
	}
	return m.sum
}

// Addresses returns the mapped addresses in increasing order.
func (m *Memory) Addresses() []mem.Word {
	out := m.m.Keys()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SecretAddresses returns the mapped addresses whose contents carry a
// secret label, in increasing order; the concretizer targets these.
// The set is kept current by Write, so the call walks nothing and
// allocates nothing. The returned slice is the memory's own index,
// possibly shared with clones: callers must not modify it.
func (m *Memory) SecretAddresses() []mem.Word { return m.secret }

// Concretizer pins symbolic addresses to concrete words, in the style
// of angr's concretization strategies. The policy is leak-hunting: if
// the address expression can reach a secret-bearing cell under the
// path condition, pick that cell; otherwise take any model. This is
// what makes unconstrained attacker inputs (the Kocher cases' x) find
// their out-of-bounds values.
type Concretizer struct {
	Solver *Solver
	// MaxTargets bounds how many secret cells are tried per query.
	MaxTargets int
}

// NewConcretizer returns a concretizer over the given solver.
func NewConcretizer(s *Solver) *Concretizer {
	return &Concretizer{Solver: s, MaxTargets: 64}
}

// Concretize picks a concrete address for e under pc. The boolean
// reports success; failure means even plain satisfiability of pc with
// any address value was not established within budget.
func (c *Concretizer) Concretize(e Expr, pc PathCondition, m *Memory) (mem.Word, bool) {
	if v, ok := e.Concrete(); ok {
		return v.W, true
	}
	// Leak-hunting pass: try to land on a secret cell.
	targets := m.SecretAddresses()
	if len(targets) > c.MaxTargets {
		targets = targets[:c.MaxTargets]
	}
	for _, a := range targets {
		if _, ok := c.Solver.SolveWith(pc, e, a); ok {
			return a, true
		}
	}
	// Otherwise: any model.
	if env, ok := c.Solver.Solve(pc); ok {
		return e.Eval(env).W, true
	}
	return 0, false
}

// String renders the memory for debugging.
func (m *Memory) String() string {
	s := ""
	for _, a := range m.Addresses() {
		e, _ := m.m.Lookup(a)
		s += fmt.Sprintf("%#x ↦ %s\n", a, e)
	}
	return s
}
