package symx

// The incremental constraint engine behind Solver: an abstract
// interval + known-bits domain with sound per-opcode transfer
// functions, fixpoint propagation over a conjunction (seeded from the
// parent condition's fixpoint, so child conditions pay for one new
// conjunct), an incremental candidate evaluator that re-checks only
// the conjuncts whose variables changed, the depth-first model search
// built on it, and a bounded fingerprint-keyed result cache.
//
// The domains over-approximate the model set, so they are only ever
// used to (a) return definite UNSAT when a variable's domain is empty
// and (b) choose the candidates the search tries. A witness is a pure
// function of the query: no seed, no call order, no cache state.

import (
	"math/bits"
	"slices"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

// ---------------------------------------------------------------------
// Abstract domain: unsigned interval × known bits.
// ---------------------------------------------------------------------

// vdom abstracts a set of 64-bit words as the intersection of an
// unsigned interval [lo,hi] and a bit pattern (bit i is constrained
// iff known has it set, and then must equal the corresponding bit of
// bit). The domain is sound by construction: every operation keeps the
// abstract set a superset of the concrete one, so an empty vdom is a
// proof of unsatisfiability — never a heuristic guess.
type vdom struct {
	lo, hi     mem.Word
	known, bit mem.Word
}

var (
	fullDom  = vdom{lo: 0, hi: ^mem.Word(0)}
	emptyDom = vdom{lo: ^mem.Word(0), hi: 0}
	// boolDom abstracts a comparison result: {0, 1}.
	boolDom = vdom{lo: 0, hi: 1, known: ^mem.Word(1), bit: 0}
)

func domConst(w mem.Word) vdom {
	return vdom{lo: w, hi: w, known: ^mem.Word(0), bit: w}
}

func ivl(lo, hi mem.Word) vdom { return vdom{lo: lo, hi: hi} }

func (d vdom) empty() bool { return d.lo > d.hi }

func (d vdom) isFull() bool { return d == fullDom }

func (d vdom) singleton() (mem.Word, bool) { return d.lo, d.lo == d.hi }

// definitelyNonzero reports that no word in the domain is zero.
func (d vdom) definitelyNonzero() bool { return d.lo > 0 || d.bit != 0 }

func (d vdom) contains(w mem.Word) bool {
	return w >= d.lo && w <= d.hi && w&d.known == d.bit
}

// norm reconciles the interval and bit halves: the pattern bounds the
// interval, the shared leading bits of the interval become known, and
// a direct disagreement collapses to the empty domain.
func (d vdom) norm() vdom {
	d.bit &= d.known
	if d.lo < d.bit {
		d.lo = d.bit
	}
	if top := d.bit | ^d.known; d.hi > top {
		d.hi = top
	}
	if d.lo > d.hi {
		return emptyDom
	}
	if n := bits.Len64(uint64(d.lo ^ d.hi)); n < 64 {
		pm := ^mem.Word(0) << uint(n)
		pv := d.lo & pm
		if (pv^d.bit)&pm&d.known != 0 {
			return emptyDom
		}
		d.known |= pm
		d.bit = (d.bit &^ pm) | pv
	}
	if d.lo == d.hi {
		d.known, d.bit = ^mem.Word(0), d.lo
	}
	return d
}

// meetInterval intersects with [lo,hi].
func (d vdom) meetInterval(lo, hi mem.Word) vdom {
	if lo > d.lo {
		d.lo = lo
	}
	if hi < d.hi {
		d.hi = hi
	}
	return d.norm()
}

// meetBits intersects with the pattern (mask, val).
func (d vdom) meetBits(mask, val mem.Word) vdom {
	if (d.bit^val)&d.known&mask != 0 {
		return emptyDom
	}
	d.known |= mask
	d.bit = (d.bit &^ mask) | (val & mask)
	return d.norm()
}

// join is the lattice join (set union, over-approximated).
func domJoin(a, b vdom) vdom {
	if a.empty() {
		return b
	}
	if b.empty() {
		return a
	}
	out := vdom{lo: a.lo, hi: a.hi}
	if b.lo < out.lo {
		out.lo = b.lo
	}
	if b.hi > out.hi {
		out.hi = b.hi
	}
	out.known = a.known & b.known &^ (a.bit ^ b.bit)
	out.bit = a.bit & out.known
	return out.norm()
}

// lowMask returns a word with the n lowest bits set.
func lowMask(n int) mem.Word {
	if n >= 64 {
		return ^mem.Word(0)
	}
	return (mem.Word(1) << uint(n)) - 1
}

// trailingKnown counts how many low bits are known in both operands.
func trailingKnown(a, b vdom) int {
	m := a.known & b.known
	return bits.TrailingZeros64(uint64(^m))
}

func domAdd(a, b vdom) vdom {
	if a.empty() || b.empty() {
		return emptyDom
	}
	d := fullDom
	cl := a.lo > ^mem.Word(0)-b.lo
	ch := a.hi > ^mem.Word(0)-b.hi
	if cl == ch { // the sum wraps for all extremes or for none
		d = ivl(a.lo+b.lo, a.hi+b.hi)
	}
	// Low bits of a sum depend only on low bits of the operands, so
	// they survive even a wrapping interval.
	if tz := trailingKnown(a, b); tz > 0 {
		m := lowMask(tz)
		d = d.meetBits(m, (a.bit+b.bit)&m)
	}
	return d.norm()
}

func domSub(a, b vdom) vdom {
	if a.empty() || b.empty() {
		return emptyDom
	}
	d := fullDom
	if a.lo >= b.hi || a.hi < b.lo { // no borrow anywhere, or borrow everywhere
		d = ivl(a.lo-b.hi, a.hi-b.lo)
	}
	if tz := trailingKnown(a, b); tz > 0 {
		m := lowMask(tz)
		d = d.meetBits(m, (a.bit-b.bit)&m)
	}
	return d.norm()
}

func domNeg(a vdom) vdom {
	if a.empty() {
		return emptyDom
	}
	if w, ok := a.singleton(); ok {
		return domConst(-w)
	}
	if a.lo > 0 {
		return ivl(-a.hi, -a.lo)
	}
	return fullDom
}

func domNot(a vdom) vdom {
	if a.empty() {
		return emptyDom
	}
	return vdom{lo: ^a.hi, hi: ^a.lo, known: a.known, bit: ^a.bit & a.known}.norm()
}

func domAnd(a, b vdom) vdom {
	if a.empty() || b.empty() {
		return emptyDom
	}
	known1 := a.known & a.bit & b.known & b.bit
	known0 := (a.known &^ a.bit) | (b.known &^ b.bit)
	hi := a.hi
	if b.hi < hi {
		hi = b.hi
	}
	return vdom{lo: 0, hi: hi, known: known0 | known1, bit: known1}.norm()
}

func domOr(a, b vdom) vdom {
	if a.empty() || b.empty() {
		return emptyDom
	}
	known1 := (a.known & a.bit) | (b.known & b.bit)
	known0 := a.known &^ a.bit & b.known &^ b.bit
	lo := a.lo
	if b.lo > lo {
		lo = b.lo
	}
	hi := lowMask(bits.Len64(uint64(a.hi | b.hi)))
	return vdom{lo: lo, hi: hi, known: known0 | known1, bit: known1}.norm()
}

func domXor(a, b vdom) vdom {
	if a.empty() || b.empty() {
		return emptyDom
	}
	known := a.known & b.known
	return vdom{lo: 0, hi: ^mem.Word(0), known: known, bit: (a.bit ^ b.bit) & known}.norm()
}

func domMul(a, b vdom) vdom {
	if a.empty() || b.empty() {
		return emptyDom
	}
	if hi, _ := bits.Mul64(uint64(a.hi), uint64(b.hi)); hi == 0 {
		return ivl(a.lo*b.lo, a.hi*b.hi)
	}
	return fullDom
}

func domDiv(a, b vdom) vdom {
	if a.empty() || b.empty() {
		return emptyDom
	}
	if b.lo > 0 {
		return ivl(a.lo/b.hi, a.hi/b.lo)
	}
	return ivl(0, a.hi) // x/0 = 0, and x/y ≤ x otherwise
}

func domMod(a, b vdom) vdom {
	if a.empty() || b.empty() {
		return emptyDom
	}
	hi := a.hi
	if b.hi > 0 && b.hi-1 < hi {
		hi = b.hi - 1
	}
	if b.hi == 0 {
		hi = 0 // x%0 = 0
	}
	return ivl(0, hi)
}

func domShl(a, b vdom) vdom {
	if a.empty() || b.empty() {
		return emptyDom
	}
	s, ok := b.singleton()
	if !ok {
		return fullDom
	}
	k := int(s & 63)
	d := vdom{lo: 0, hi: ^mem.Word(0), known: a.known<<uint(k) | lowMask(k), bit: a.bit << uint(k)}
	if bits.Len64(uint64(a.hi))+k <= 64 {
		d.lo, d.hi = a.lo<<uint(k), a.hi<<uint(k)
	}
	return d.norm()
}

func domShr(a, b vdom) vdom {
	if a.empty() || b.empty() {
		return emptyDom
	}
	s, ok := b.singleton()
	if !ok {
		return fullDom
	}
	k := int(s & 63)
	var highKnown mem.Word
	if k > 0 {
		highKnown = ^(^mem.Word(0) >> uint(k)) // top k bits are zero
	}
	return vdom{lo: a.lo >> uint(k), hi: a.hi >> uint(k),
		known: a.known>>uint(k) | highKnown, bit: a.bit >> uint(k)}.norm()
}

func domSar(a, b vdom) vdom {
	if a.empty() || b.empty() {
		return emptyDom
	}
	s, ok := b.singleton()
	if !ok {
		return fullDom
	}
	if a.hi < 1<<63 { // sign bit provably clear: logical shift
		return domShr(a, b)
	}
	_ = s
	return fullDom
}

// domCmpU decides an unsigned comparison (or Eq/Ne) when the operand
// domains allow, returning {0}, {1}, or {0,1}.
func domCmpU(code isa.Opcode, a, b vdom) vdom {
	if a.empty() || b.empty() {
		return emptyDom
	}
	disjoint := a.hi < b.lo || b.hi < a.lo || (a.bit^b.bit)&a.known&b.known != 0
	as, aok := a.singleton()
	bs, bok := b.singleton()
	same := aok && bok && as == bs
	switch code {
	case isa.OpEq:
		if disjoint {
			return domConst(0)
		}
		if same {
			return domConst(1)
		}
	case isa.OpNe:
		if disjoint {
			return domConst(1)
		}
		if same {
			return domConst(0)
		}
	case isa.OpLt:
		if a.hi < b.lo {
			return domConst(1)
		}
		if a.lo >= b.hi {
			return domConst(0)
		}
	case isa.OpLe:
		if a.hi <= b.lo {
			return domConst(1)
		}
		if a.lo > b.hi {
			return domConst(0)
		}
	case isa.OpGt:
		if a.lo > b.hi {
			return domConst(1)
		}
		if a.hi <= b.lo {
			return domConst(0)
		}
	case isa.OpGe:
		if a.lo >= b.hi {
			return domConst(1)
		}
		if a.hi < b.lo {
			return domConst(0)
		}
	}
	return boolDom
}

// aeval abstractly evaluates an expression over the variable domains.
func aeval(e Expr, vidx map[string]int, doms []vdom) vdom {
	switch x := e.(type) {
	case Const:
		return domConst(x.V.W)
	case Var:
		if i, ok := vidx[x.Name]; ok {
			return doms[i]
		}
		return fullDom
	case Op:
		return aevalOp(x, vidx, doms)
	}
	return fullDom
}

func aevalOp(o Op, vidx map[string]int, doms []vdom) vdom {
	// Arity is validated defensively; Apply-built trees always conform.
	bin := func(f func(a, b vdom) vdom) vdom {
		if len(o.Args) != 2 {
			return fullDom
		}
		return f(aeval(o.Args[0], vidx, doms), aeval(o.Args[1], vidx, doms))
	}
	un := func(f func(a vdom) vdom) vdom {
		if len(o.Args) != 1 {
			return fullDom
		}
		return f(aeval(o.Args[0], vidx, doms))
	}
	switch o.Code {
	case isa.OpAdd:
		if len(o.Args) == 0 {
			return fullDom
		}
		d := aeval(o.Args[0], vidx, doms)
		for _, a := range o.Args[1:] {
			d = domAdd(d, aeval(a, vidx, doms))
		}
		return d
	case isa.OpSub:
		return bin(domSub)
	case isa.OpMul:
		return bin(domMul)
	case isa.OpDiv:
		return bin(domDiv)
	case isa.OpMod:
		return bin(domMod)
	case isa.OpAnd:
		return bin(domAnd)
	case isa.OpOr:
		return bin(domOr)
	case isa.OpXor:
		return bin(domXor)
	case isa.OpShl:
		return bin(domShl)
	case isa.OpShr:
		return bin(domShr)
	case isa.OpSar:
		return bin(domSar)
	case isa.OpNot:
		return un(domNot)
	case isa.OpNeg:
		return un(domNeg)
	case isa.OpMov:
		return un(func(a vdom) vdom { return a })
	case isa.OpEq, isa.OpNe, isa.OpLt, isa.OpLe, isa.OpGt, isa.OpGe:
		if len(o.Args) != 2 {
			return fullDom
		}
		return domCmpU(o.Code, aeval(o.Args[0], vidx, doms), aeval(o.Args[1], vidx, doms))
	case isa.OpSlt, isa.OpSle, isa.OpSgt, isa.OpSge:
		return boolDom
	case isa.OpSelect:
		if len(o.Args) != 3 {
			return fullDom
		}
		c := aeval(o.Args[0], vidx, doms)
		if c.empty() {
			return emptyDom
		}
		if c.definitelyNonzero() {
			return aeval(o.Args[1], vidx, doms)
		}
		if w, ok := c.singleton(); ok && w == 0 {
			return aeval(o.Args[2], vidx, doms)
		}
		return domJoin(aeval(o.Args[1], vidx, doms), aeval(o.Args[2], vidx, doms))
	case isa.OpSucc: // v0 - 1 (stack grows down)
		return un(func(a vdom) vdom { return domSub(a, domConst(1)) })
	case isa.OpPred: // v0 + 1
		return un(func(a vdom) vdom { return domAdd(a, domConst(1)) })
	}
	return fullDom
}

// ---------------------------------------------------------------------
// Constraint refinement and fixpoint propagation.
// ---------------------------------------------------------------------

// linVar matches e ≡ x + off for a single variable x (covering the
// bare variable and nested additions and subtractions of constants,
// such as add(sub(x, 5), 4105)), which is the shape path conditions
// overwhelmingly take: concretization pins eq(add(x, base), addr) and
// branches test cmp(x, bound).
func linVar(e Expr) (name string, off mem.Word, ok bool) {
	switch x := e.(type) {
	case Var:
		return x.Name, 0, true
	case Op:
		switch x.Code {
		case isa.OpAdd:
			for _, a := range x.Args {
				if v, isC := a.Concrete(); isC {
					off += v.W
					continue
				}
				n, o, lin := linVar(a)
				if !lin || name != "" {
					return "", 0, false
				}
				name, off = n, off+o
			}
			if name != "" {
				return name, off, true
			}
		case isa.OpSub:
			if len(x.Args) == 2 {
				if c, isC := x.Args[1].Concrete(); isC {
					if n, o, lin := linVar(x.Args[0]); lin {
						return n, o - c.W, true
					}
				}
			}
		}
	}
	return "", 0, false
}

// negRel returns the complement relation (¬(a < b) ⇔ a ≥ b, …).
func negRel(code isa.Opcode) isa.Opcode {
	switch code {
	case isa.OpEq:
		return isa.OpNe
	case isa.OpNe:
		return isa.OpEq
	case isa.OpLt:
		return isa.OpGe
	case isa.OpLe:
		return isa.OpGt
	case isa.OpGt:
		return isa.OpLe
	case isa.OpGe:
		return isa.OpLt
	case isa.OpSlt:
		return isa.OpSge
	case isa.OpSle:
		return isa.OpSgt
	case isa.OpSgt:
		return isa.OpSle
	case isa.OpSge:
		return isa.OpSlt
	}
	return code
}

// flipRel mirrors a relation across its operands (a < b ⇔ b > a).
func flipRel(code isa.Opcode) isa.Opcode {
	switch code {
	case isa.OpLt:
		return isa.OpGt
	case isa.OpLe:
		return isa.OpGe
	case isa.OpGt:
		return isa.OpLt
	case isa.OpGe:
		return isa.OpLe
	}
	return code // Eq, Ne are symmetric
}

// refineSide narrows the domain of a variable appearing linearly on
// one side of "e REL other". Returns false on a proven-empty domain.
func refineSide(e Expr, rel isa.Opcode, other vdom, vidx map[string]int, doms []vdom) bool {
	name, off, ok := linVar(e)
	if !ok {
		return true
	}
	i, ok := vidx[name]
	if !ok {
		return true
	}
	var tlo, thi mem.Word // bounds on t = x + off
	switch rel {
	case isa.OpEq:
		tlo, thi = other.lo, other.hi
	case isa.OpNe:
		if s, single := other.singleton(); single {
			v := s - off
			d := doms[i]
			if w, one := d.singleton(); one && w == v {
				return false
			}
			if d.lo == v {
				d.lo++
			} else if d.hi == v {
				d.hi--
			} else {
				return true
			}
			d = d.norm()
			if d.empty() {
				return false
			}
			doms[i] = d
		}
		return true
	case isa.OpLt:
		if other.hi == 0 {
			return false // t < 0 is unsatisfiable
		}
		tlo, thi = 0, other.hi-1
	case isa.OpLe:
		tlo, thi = 0, other.hi
	case isa.OpGt:
		if other.lo == ^mem.Word(0) {
			return false // t > max is unsatisfiable
		}
		tlo, thi = other.lo+1, ^mem.Word(0)
	case isa.OpGe:
		tlo, thi = other.lo, ^mem.Word(0)
	default:
		return true
	}
	xlo, xhi := tlo-off, thi-off
	if xlo > xhi {
		return true // the shifted interval wraps; skip (sound)
	}
	d := doms[i].meetInterval(xlo, xhi)
	if d.empty() {
		return false
	}
	doms[i] = d
	return true
}

// refineAndMask handles bit-test conjuncts: and(x, m) = 0 pins the
// masked bits of x to zero; and(x, m) ≠ 0 with a single-bit mask pins
// that bit to one.
func refineAndMask(o Op, truthy bool, vidx map[string]int, doms []vdom) bool {
	var v Var
	var m mem.Word
	if c, ok := o.Args[1].Concrete(); ok {
		vv, isV := o.Args[0].(Var)
		if !isV {
			return true
		}
		v, m = vv, c.W
	} else if c, ok := o.Args[0].Concrete(); ok {
		vv, isV := o.Args[1].(Var)
		if !isV {
			return true
		}
		v, m = vv, c.W
	} else {
		return true
	}
	i, ok := vidx[v.Name]
	if !ok {
		return true
	}
	var d vdom
	switch {
	case !truthy:
		d = doms[i].meetBits(m, 0)
	case m != 0 && m&(m-1) == 0:
		d = doms[i].meetBits(m, m)
	default:
		return true
	}
	if d.empty() {
		return false
	}
	doms[i] = d
	return true
}

// refineConstraint narrows the variable domains under one conjunct.
// Returns false only when the domains prove the conjunct has no model
// — a definite UNSAT, by soundness of the domain operations.
func refineConstraint(c Constraint, vidx map[string]int, doms []vdom) bool {
	d := aeval(c.E, vidx, doms)
	if d.empty() {
		return false
	}
	if c.Truthy {
		if w, ok := d.singleton(); ok && w == 0 {
			return false
		}
	} else if d.definitelyNonzero() {
		return false
	}
	switch e := c.E.(type) {
	case Var:
		i, ok := vidx[e.Name]
		if !ok {
			return true
		}
		var nd vdom
		if c.Truthy {
			nd = doms[i]
			if nd.lo == 0 {
				nd.lo = 1
				nd = nd.norm()
			}
		} else {
			nd = doms[i].meetInterval(0, 0)
		}
		if nd.empty() {
			return false
		}
		doms[i] = nd
	case Op:
		return refineOp(e, c.Truthy, vidx, doms)
	}
	return true
}

func refineOp(o Op, truthy bool, vidx map[string]int, doms []vdom) bool {
	if inner, truth, ok := unwrapTest(o, truthy); ok {
		return refineConstraint(Constraint{E: inner, Truthy: truth}, vidx, doms)
	}
	if o.Code == isa.OpAnd && len(o.Args) == 2 {
		return refineAndMask(o, truthy, vidx, doms)
	}
	rel := o.Code
	if !rel.IsComparison() || len(o.Args) != 2 {
		return true
	}
	if !truthy {
		rel = negRel(rel)
	}
	switch rel {
	case isa.OpSlt, isa.OpSle, isa.OpSgt, isa.OpSge:
		return true // signed refinement not modeled
	}
	da := aeval(o.Args[0], vidx, doms)
	db := aeval(o.Args[1], vidx, doms)
	if da.empty() || db.empty() {
		return false
	}
	if res := domCmpU(rel, da, db); res == domConst(0) {
		return false
	}
	if !refineSide(o.Args[0], rel, db, vidx, doms) {
		return false
	}
	return refineSide(o.Args[1], flipRel(rel), da, vidx, doms)
}

// unwrapTest rewrites the compiler's branch-condition form ne(t, 0) or
// eq(t, 0), for a relation or bit test t, to t itself or its negation.
func unwrapTest(o Op, truthy bool) (Expr, bool, bool) {
	if (o.Code != isa.OpNe && o.Code != isa.OpEq) || len(o.Args) != 2 {
		return nil, false, false
	}
	if c, isC := o.Args[1].Concrete(); !isC || c.W != 0 {
		return nil, false, false
	}
	t, isOp := o.Args[0].(Op)
	if !isOp || !(t.Code.IsComparison() || t.Code == isa.OpAnd) {
		return nil, false, false
	}
	return t, truthy == (o.Code == isa.OpNe), true
}

// propRounds bounds the fixpoint iteration; domains only ever shrink,
// so stopping early is sound (just less precise).
const propRounds = 8

// propagate refines doms to a (bounded) fixpoint of the conjunction.
// When fromParent is set, doms arrived as the parent condition's
// fixpoint extended with ⊤ for fresh variables: one pass over the new
// final conjunct suffices if it narrows nothing — the incremental
// push of push/pop solving. Returns false only on definite UNSAT.
func propagate(cons []Constraint, vidx map[string]int, doms []vdom, fromParent bool) bool {
	snap := make([]vdom, 0, len(doms))
	unchanged := func() bool {
		for i := range doms {
			if doms[i] != snap[i] {
				return false
			}
		}
		return true
	}
	if fromParent && len(cons) > 1 {
		snap = append(snap, doms...)
		if !refineConstraint(cons[len(cons)-1], vidx, doms) {
			return false
		}
		if unchanged() {
			return true
		}
	}
	for round := 0; round < propRounds; round++ {
		snap = append(snap[:0], doms...)
		for _, c := range cons {
			if !refineConstraint(c, vidx, doms) {
				return false
			}
		}
		if unchanged() {
			break
		}
	}
	return true
}

// ---------------------------------------------------------------------
// Incremental candidate evaluation and the model search.
// ---------------------------------------------------------------------

// footprint hashes an expression's variable footprint into 64 bits
// (index mod 64) and reports its highest variable index (-1 for none).
// Mask collisions only cause extra re-evaluations, never missed ones,
// because evalCtx.set hashes indices the same way.
func footprint(e Expr, vidx map[string]int) (mask uint64, last int) {
	switch x := e.(type) {
	case Var:
		if i, ok := vidx[x.Name]; ok {
			return 1 << uint(i&63), i
		}
	case Op:
		last = -1
		for _, a := range x.Args {
			m, l := footprint(a, vidx)
			mask |= m
			last = max(last, l)
		}
		return mask, last
	}
	return 0, -1
}

// evalCtx is the incremental evaluator behind one solve: it holds the
// working assignment and per-conjunct satisfaction flags, and on each
// variable update re-evaluates only the conjuncts whose variable
// footprint intersects the change — a candidate costs the conjuncts it
// can affect, not a walk of the whole chain.
type evalCtx struct {
	vars []string
	cons []Constraint
	mask []uint64
	// settled[i+1] lists the conjuncts whose highest variable index is
	// i, decided once variables 0..i are assigned; settled[0] lists the
	// variable-free ones.
	settled [][]int
	sat     []bool
	env     Env
}

func newEvalCtx(vars []string, cons []Constraint, vidx map[string]int) *evalCtx {
	ec := &evalCtx{
		vars:    vars,
		cons:    cons,
		mask:    make([]uint64, len(cons)),
		settled: make([][]int, len(vars)+1),
		sat:     make([]bool, len(cons)),
		env:     make(Env, len(vars)),
	}
	for _, v := range vars {
		ec.env[v] = 0
	}
	for k, c := range cons {
		var last int
		ec.mask[k], last = footprint(c.E, vidx)
		ec.settled[last+1] = append(ec.settled[last+1], k)
		ec.sat[k] = c.Holds(ec.env)
	}
	return ec
}

func (ec *evalCtx) set(i int, w mem.Word) {
	name := ec.vars[i]
	if ec.env[name] == w {
		return
	}
	ec.env[name] = w
	bit := uint64(1) << uint(i&63)
	for k, m := range ec.mask {
		if m&bit != 0 {
			ec.sat[k] = ec.cons[k].Holds(ec.env)
		}
	}
}

// holds reports whether every conjunct settled at level holds.
func (ec *evalCtx) holds(level int) bool {
	for _, k := range ec.settled[level] {
		if !ec.sat[k] {
			return false
		}
	}
	return true
}

// searchBudget bounds the candidates one search evaluates; running out
// of it means "unknown", never UNSAT.
const searchBudget = 4096

// search is the solver's model search: a depth-first walk that assigns
// the variables in order, each from its candidates list, and cuts a
// branch as soon as a conjunct whose variables are all assigned is
// false. It reports whether env now holds a model, and the number of
// candidates it evaluated.
func (ec *evalCtx) search(doms []vdom) (bool, uint64) {
	if !ec.holds(0) {
		return false, 0 // a variable-free conjunct is false
	}
	var consts []mem.Word
	for _, c := range ec.cons {
		consts = constWords(c.E, consts)
	}
	cands := make([][]mem.Word, len(ec.vars))
	for i := range cands {
		cands[i] = candidates(doms[i], consts)
	}
	var evals uint64
	var walk func(i int) bool
	walk = func(i int) bool {
		if i == len(cands) {
			return true
		}
		for _, w := range cands[i] {
			if evals == searchBudget {
				return false
			}
			evals++
			ec.set(i, w)
			if ec.holds(i+1) && walk(i+1) {
				return true
			}
		}
		return false
	}
	return walk(0), evals
}

// candidates lists the words the search tries for one variable: a
// propagation-forced singleton alone; otherwise, in order, the
// domain's bounds and their inner neighbours, zero and the small
// words, the completions of the known bits (unknown bits all clear,
// all set, or copied from a bound), the word-arithmetic boundaries
// (2^k and 2^k-1 up to 2^16, and the sign bit), and each constant of
// the condition with its neighbours — each once, and only if the
// domain contains it.
func candidates(d vdom, consts []mem.Word) []mem.Word {
	if w, ok := d.singleton(); ok {
		return []mem.Word{w}
	}
	free := ^d.known
	ws := []mem.Word{d.lo, d.hi, d.lo + 1, d.hi - 1, 0, 1, 2, 3, 4, 5, 6, 7, 8,
		d.bit, d.bit | free, d.lo&free | d.bit, d.hi&free | d.bit}
	for k := 4; k <= 16; k++ {
		ws = append(ws, 1<<k-1, 1<<k)
	}
	ws = append(ws, 1<<63)
	for _, c := range consts {
		ws = append(ws, c, c+1, c-1)
	}
	out := ws[:0]
	for _, w := range ws {
		if d.contains(w) && !slices.Contains(out, w) {
			out = append(out, w)
		}
	}
	return out
}

// constWords appends the constants of e not yet in dst, in order of
// appearance.
func constWords(e Expr, dst []mem.Word) []mem.Word {
	switch x := e.(type) {
	case Const:
		if !slices.Contains(dst, x.V.W) {
			dst = append(dst, x.V.W)
		}
	case Op:
		for _, a := range x.Args {
			dst = constWords(a, dst)
		}
	}
	return dst
}

// ---------------------------------------------------------------------
// Result cache.
// ---------------------------------------------------------------------

// solveEntry is one memoized solve result. Entries are immutable after
// publication; env maps are shared (callers must not mutate models).
type solveEntry struct {
	doms  []vdom // variable domains at the propagation fixpoint
	env   Env    // model, when ok
	ok    bool   // a model was found
	unsat bool   // propagation proved the conjunction empty (definite)
}

var emptyEntry = &solveEntry{env: Env{}, ok: true}

// cacheEntries bounds one solver's result cache.
const cacheEntries = 1 << 13

// modelCache memoizes solve results by path-condition fingerprint;
// FIFO eviction bounds memory. One analysis owns it, on one goroutine.
type modelCache struct {
	m    map[uint64]*solveEntry
	fifo []uint64
	head int
}

func newModelCache() *modelCache {
	return &modelCache{m: make(map[uint64]*solveEntry)}
}

func (c *modelCache) get(fp uint64) (*solveEntry, bool) {
	e, ok := c.m[fp]
	return e, ok
}

func (c *modelCache) put(fp uint64, e *solveEntry) {
	if _, exists := c.m[fp]; !exists {
		if len(c.fifo)-c.head >= cacheEntries {
			delete(c.m, c.fifo[c.head])
			c.head++
			if c.head > cacheEntries {
				c.fifo = append(c.fifo[:0], c.fifo[c.head:]...)
				c.head = 0
			}
		}
		c.fifo = append(c.fifo, fp)
	}
	c.m[fp] = e
}

// ---------------------------------------------------------------------
// Counters.
// ---------------------------------------------------------------------

// SolverStats is a snapshot of the constraint engine's counters for
// one analysis: queries answered, answers served from the
// fingerprint-keyed cache, queries settled UNSAT by domain
// propagation alone, queries whose candidate space was narrowed by
// propagation, and the total candidates the model search evaluated.
type SolverStats struct {
	Queries        uint64
	CacheHits      uint64
	DefiniteUnsats uint64
	PropPruned     uint64
	ProbeIters     uint64
}

// Stats snapshots the solver's counters.
func (s *Solver) Stats() SolverStats { return s.counters }
