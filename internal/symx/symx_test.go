package symx

import (
	"testing"
	"testing/quick"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

func TestConstBasics(t *testing.T) {
	c := C(mem.Sec(7))
	if c.Label() != mem.Secret {
		t.Fatal("label")
	}
	if v, ok := c.Concrete(); !ok || v != mem.Sec(7) {
		t.Fatal("concrete")
	}
	if c.Eval(Env{}) != mem.Sec(7) {
		t.Fatal("eval")
	}
	if c.String() != "7sec" {
		t.Fatalf("string = %q", c.String())
	}
}

func TestVarBasics(t *testing.T) {
	x := NewVar("x", mem.Public)
	if _, ok := x.Concrete(); ok {
		t.Fatal("variables are not concrete")
	}
	if x.Eval(Env{"x": 9}) != mem.Pub(9) {
		t.Fatal("eval")
	}
	k := NewVar("k", mem.Secret)
	if k.Label() != mem.Secret || k.String() != "k!sec" {
		t.Fatalf("secret var: %s", k)
	}
	if Vars(Apply(isa.OpAdd, x, k))[0] != "k" {
		t.Fatal("vars must be sorted")
	}
}

func TestApplyConstantFolding(t *testing.T) {
	e := Apply(isa.OpAdd, CW(2), CW(3))
	if v, ok := e.Concrete(); !ok || v.W != 5 {
		t.Fatalf("fold = %v", e)
	}
	// Folding joins labels.
	e = Apply(isa.OpMul, C(mem.Sec(2)), CW(3))
	if v, ok := e.Concrete(); !ok || v != mem.Sec(6) {
		t.Fatalf("fold label = %v", e)
	}
}

func TestApplyAddIdentities(t *testing.T) {
	x := NewVar("x", mem.Public)
	// x + 0 = x
	if e := Apply(isa.OpAdd, x, CW(0)); e != Expr(x) {
		t.Fatalf("x+0 = %v", e)
	}
	// constants merge
	e := Apply(isa.OpAdd, CW(1), x, CW(2))
	o, ok := e.(Op)
	if !ok || len(o.Args) != 2 {
		t.Fatalf("1+x+2 = %v", e)
	}
	if e.Eval(Env{"x": 10}).W != 13 {
		t.Fatal("eval after merge")
	}
}

func TestApplyCancellationKeepsLabel(t *testing.T) {
	k := NewVar("k", mem.Secret)
	e := Apply(isa.OpXor, k, k)
	v, ok := e.Concrete()
	if !ok || v.W != 0 {
		t.Fatalf("k^k = %v", e)
	}
	if !v.L.IsSecret() {
		t.Fatal("cancellation must not launder the label")
	}
}

func TestApplyMulIdentities(t *testing.T) {
	x := NewVar("x", mem.Public)
	if e := Apply(isa.OpMul, CW(1), x); e != Expr(x) {
		t.Fatalf("1*x = %v", e)
	}
	if e := Apply(isa.OpMul, x, CW(0)); mustConcrete(t, e).W != 0 {
		t.Fatalf("x*0 = %v", e)
	}
	if e := Apply(isa.OpMov, x); e != Expr(x) {
		t.Fatalf("mov x = %v", e)
	}
}

func mustConcrete(t *testing.T, e Expr) mem.Value {
	t.Helper()
	v, ok := e.Concrete()
	if !ok {
		t.Fatalf("not concrete: %v", e)
	}
	return v
}

// Property: Apply agrees with direct evaluation under random
// assignments for a sample of opcodes.
func TestApplyAgreesWithEval(t *testing.T) {
	x, y := NewVar("x", mem.Public), NewVar("y", mem.Secret)
	ops := []isa.Opcode{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpXor, isa.OpAnd, isa.OpOr, isa.OpLt, isa.OpEq, isa.OpShr}
	f := func(a, b uint64, opIdx uint8) bool {
		op := ops[int(opIdx)%len(ops)]
		e := Apply(op, x, y)
		env := Env{"x": a, "y": b}
		direct, err := isa.Eval(op, []mem.Value{mem.Pub(a), mem.Sec(b)})
		if err != nil {
			return false
		}
		return e.Eval(env) == direct
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpLabelJoin(t *testing.T) {
	x := NewVar("x", mem.Public)
	k := NewVar("k", mem.Secret)
	if Apply(isa.OpAdd, x, k).Label() != mem.Secret {
		t.Fatal("op label must join")
	}
	if Apply(isa.OpSelect, k, CW(1), CW(2)).Label() != mem.Secret {
		t.Fatal("select condition must taint")
	}
}

func TestConstraintAndPathCondition(t *testing.T) {
	x := NewVar("x", mem.Public)
	cTrue := Constraint{E: Apply(isa.OpLt, x, CW(10)), Truthy: true}
	cFalse := Constraint{E: Apply(isa.OpEq, x, CW(3)), Truthy: false}
	pc := PathCondition{}.With(cTrue).With(cFalse)
	if !pc.Holds(Env{"x": 5}) {
		t.Fatal("x=5 satisfies x<10 ∧ x≠3")
	}
	if pc.Holds(Env{"x": 3}) || pc.Holds(Env{"x": 12}) {
		t.Fatal("x=3 and x=12 must fail")
	}
	if got := pc.Vars(); len(got) != 1 || got[0] != "x" {
		t.Fatalf("vars = %v", got)
	}
	if cTrue.String() == "" || cFalse.String() == "" {
		t.Fatal("constraint strings")
	}
	// With must not mutate the prefix.
	base := PathCondition{}.With(cTrue)
	_ = base.With(cFalse)
	if base.Len() != 1 {
		t.Fatal("With mutated the receiver")
	}
}

// TestPathConditionFingerprintFold pins the chain's cached fingerprint
// to the historical oldest-first slice fold: the solver cache and the
// exploration's dedup fingerprints are keyed by it, so the fold may
// never drift.
func TestPathConditionFingerprintFold(t *testing.T) {
	x := NewVar("x", mem.Public)
	cs := []Constraint{
		{E: Apply(isa.OpLt, x, CW(10)), Truthy: true},
		{E: Apply(isa.OpEq, x, CW(3)), Truthy: false},
		{E: Apply(isa.OpGt, x, CW(1)), Truthy: true},
	}
	var p PathCondition
	for _, c := range cs {
		p = p.With(c)
	}
	want := mem.HashSeed
	for _, c := range cs {
		want = mem.Mix64(want ^ Fingerprint(c.E))
		if c.Truthy {
			want = mem.Mix64(want ^ 1)
		} else {
			want = mem.Mix64(want ^ 2)
		}
	}
	if got := p.Fingerprint(); got != want {
		t.Fatalf("chain fingerprint %#x, slice fold %#x", got, want)
	}
	if (PathCondition{}).Fingerprint() != mem.HashSeed {
		t.Fatal("empty condition must fingerprint to the seed")
	}
}

// TestPathConditionWithAllocs pins the per-fork constraint cost: With
// allocates exactly the one chain node, never a copy of the prefix.
func TestPathConditionWithAllocs(t *testing.T) {
	x := NewVar("x", mem.Public)
	base := PathCondition{}.
		With(Constraint{E: Apply(isa.OpLt, x, CW(100)), Truthy: true}).
		With(Constraint{E: Apply(isa.OpGt, x, CW(2)), Truthy: true}).
		With(Constraint{E: Apply(isa.OpEq, x, CW(50)), Truthy: false})
	c := Constraint{E: Apply(isa.OpEq, x, CW(7)), Truthy: true}
	allocs := testing.AllocsPerRun(200, func() {
		sink = base.With(c)
	})
	if allocs > 1 {
		t.Fatalf("With allocates %v objects per call, want 1", allocs)
	}
}

var sink PathCondition

func TestSolverSimple(t *testing.T) {
	s := NewSolver()
	x := NewVar("x", mem.Public)
	// x > 4 ∧ x < 8
	pc := PathCondition{}.
		With(Constraint{E: Apply(isa.OpGt, x, CW(4)), Truthy: true}).
		With(Constraint{E: Apply(isa.OpLt, x, CW(8)), Truthy: true})
	env, ok := s.Solve(pc)
	if !ok {
		t.Fatal("satisfiable system not solved")
	}
	if !(env["x"] > 4 && env["x"] < 8) {
		t.Fatalf("bogus model %v", env)
	}
}

func TestSolverEmptyAndTrivial(t *testing.T) {
	s := NewSolver()
	if env, ok := s.Solve(PathCondition{}); !ok || len(env) != 0 {
		t.Fatal("empty condition is satisfiable by the empty model")
	}
	pc := PathCondition{}.With(Constraint{E: CW(0), Truthy: true})
	if _, ok := s.Solve(pc); ok {
		t.Fatal("0 ≠ 0 must not be satisfiable")
	}
}

func TestSolverTwoVariables(t *testing.T) {
	s := NewSolver()
	x, y := NewVar("x", mem.Public), NewVar("y", mem.Public)
	// x + y == 255 ∧ x == 255 (forces y == 0)
	pc := PathCondition{}.
		With(Constraint{E: Apply(isa.OpEq, Apply(isa.OpAdd, x, y), CW(255)), Truthy: true}).
		With(Constraint{E: Apply(isa.OpEq, x, CW(255)), Truthy: true})
	env, ok := s.Solve(pc)
	if !ok {
		t.Fatal("not solved")
	}
	if env["x"] != 255 || env["x"]+env["y"] != 255 {
		t.Fatalf("model %v", env)
	}
}

func TestSolveWithPinsExpression(t *testing.T) {
	s := NewSolver()
	x := NewVar("x", mem.Public)
	addr := Apply(isa.OpAdd, CW(0x40), x)
	env, ok := s.SolveWith(PathCondition{}, addr, 0x49)
	if !ok {
		t.Fatal("pin not solved")
	}
	if addr.Eval(env).W != 0x49 {
		t.Fatalf("model %v does not pin the address", env)
	}
}

func TestFeasible(t *testing.T) {
	s := NewSolver()
	x := NewVar("x", mem.Public)
	sat := PathCondition{}.With(Constraint{E: Apply(isa.OpEq, x, CW(7)), Truthy: true})
	unsat := PathCondition{}.
		With(Constraint{E: Apply(isa.OpEq, x, CW(7)), Truthy: true}).
		With(Constraint{E: Apply(isa.OpEq, x, CW(8)), Truthy: true})
	if !s.Feasible(sat) {
		t.Fatal("sat reported infeasible")
	}
	if s.Feasible(unsat) {
		t.Fatal("unsat reported feasible")
	}
}

func TestSymbolicMemory(t *testing.T) {
	m := NewMemory()
	if e := m.Read(0x40); mustConcrete(t, e).W != 0 {
		t.Fatal("unmapped reads as zero")
	}
	m.Write(0x40, C(mem.Sec(9)))
	m.Write(0x41, CW(1))
	if !m.Contains(0x40) || m.Contains(0x99) {
		t.Fatal("contains")
	}
	sec := m.SecretAddresses()
	if len(sec) != 1 || sec[0] != 0x40 {
		t.Fatalf("secret addresses = %v", sec)
	}
	c := m.Clone()
	c.Write(0x40, CW(0))
	if m.Read(0x40).Label() != mem.Secret {
		t.Fatal("clone aliases")
	}
	if m.String() == "" {
		t.Fatal("string")
	}
}

func TestConcretizerPrefersSecretCells(t *testing.T) {
	s := NewSolver()
	c := NewConcretizer(s)
	m := NewMemory()
	// Public array at 0x40..0x43, secrets at 0x48..0x4B.
	for i := mem.Word(0); i < 4; i++ {
		m.Write(0x40+i, CW(i))
		m.Write(0x48+i, C(mem.Sec(0xA0+i)))
	}
	x := NewVar("x", mem.Public)
	addr := Apply(isa.OpAdd, CW(0x40), x)
	a, ok := c.Concretize(addr, PathCondition{}, m)
	if !ok {
		t.Fatal("concretization failed")
	}
	if a < 0x48 || a > 0x4B {
		t.Fatalf("leak-hunting concretizer must land on a secret cell, got %#x", a)
	}
	// Under a bounds constraint x < 4 the secret cells are
	// unreachable; concretization must still succeed, in bounds.
	pc := PathCondition{}.With(Constraint{E: Apply(isa.OpLt, x, CW(4)), Truthy: true})
	a, ok = c.Concretize(addr, pc, m)
	if !ok {
		t.Fatal("bounded concretization failed")
	}
	if a < 0x40 || a > 0x43 {
		t.Fatalf("bounded address must stay in bounds, got %#x", a)
	}
}

func TestConcretizeConcreteAddrShortCircuit(t *testing.T) {
	s := NewSolver()
	c := NewConcretizer(s)
	a, ok := c.Concretize(CW(0x123), PathCondition{}, NewMemory())
	if !ok || a != 0x123 {
		t.Fatalf("concrete address = %#x, %t", a, ok)
	}
}

func TestConcretizeInfeasiblePath(t *testing.T) {
	s := NewSolver()
	c := NewConcretizer(s)
	x := NewVar("x", mem.Public)
	pc := PathCondition{}.
		With(Constraint{E: Apply(isa.OpEq, x, CW(1)), Truthy: true}).
		With(Constraint{E: Apply(isa.OpEq, x, CW(2)), Truthy: true})
	if _, ok := c.Concretize(x, pc, NewMemory()); ok {
		t.Fatal("infeasible path must fail concretization")
	}
}
