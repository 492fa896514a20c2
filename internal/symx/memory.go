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
// CloneTo is O(1) and each fork pays only for the cells it writes, which
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
	// fingerprint, kept by Write.
	sum uint64
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
	if existed {
		m.sum -= chainCellHash(a, old)
	}
	m.sum += chainCellHash(a, e)
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

// CloneTo makes dst an independent copy in O(1), in storage the caller
// owns: the private overlay is frozen into the shared chain
// (expressions are immutable and shared throughout).
func (m *Memory) CloneTo(dst *Memory) {
	*dst = Memory{m: m.m.Fork(), secret: m.secret, sum: m.sum}
}

// HashSum folds the memory into an order-independent 64-bit sum over
// structural expression fingerprints — the symbolic configuration
// fingerprint behind the exploration engine's visited set. Write keeps
// the sum, so fingerprinting a state never re-hashes a cell's
// expression tree.
func (m *Memory) HashSum() uint64 { return m.sum }

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

// maxConcretizeTargets bounds how many secret cells Concretize tries
// per query.
const maxConcretizeTargets = 64

// Concretize pins a symbolic address e to a concrete word under pc, in
// the style of angr's concretization strategies. The policy is
// leak-hunting: if e can reach a secret-bearing cell of m under the
// path condition, pick that cell; otherwise take any model. This is
// what makes unconstrained attacker inputs (the Kocher cases' x) find
// their out-of-bounds values. The boolean reports success; failure
// means even plain satisfiability of pc with any address value was not
// established within budget.
func (s *Solver) Concretize(e Expr, pc PathCondition, m *Memory) (mem.Word, bool) {
	if v, ok := e.Concrete(); ok {
		return v.W, true
	}
	// Leak-hunting pass: try to land on a secret cell.
	targets := m.SecretAddresses()
	if len(targets) > maxConcretizeTargets {
		targets = targets[:maxConcretizeTargets]
	}
	for _, a := range targets {
		if _, ok := s.SolveWith(pc, e, a); ok {
			return a, true
		}
	}
	// Otherwise: any model.
	if env, ok := s.Solve(pc); ok {
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
