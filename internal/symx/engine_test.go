package symx

import (
	"fmt"
	"math/rand"
	"testing"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

// Deterministic random path conditions for the property suite.

func genExpr(rng *rand.Rand, vars []Var, depth int) Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			return vars[rng.Intn(len(vars))]
		}
		return CW(mem.Word(rng.Intn(300)))
	}
	ops := []isa.Opcode{
		isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpMod,
		isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr, isa.OpSar,
		isa.OpNot, isa.OpNeg,
		isa.OpEq, isa.OpNe, isa.OpLt, isa.OpLe, isa.OpGt, isa.OpGe,
		isa.OpSlt, isa.OpSge, isa.OpSelect, isa.OpSucc, isa.OpPred,
	}
	op := ops[rng.Intn(len(ops))]
	n := op.Arity()
	if n < 0 {
		n = 1 + rng.Intn(3)
	}
	args := make([]Expr, n)
	for i := range args {
		args[i] = genExpr(rng, vars, depth-1)
	}
	return Apply(op, args...)
}

func genCond(rng *rand.Rand, vars []Var) PathCondition {
	var p PathCondition
	for n := 1 + rng.Intn(4); n > 0; n-- {
		p = p.With(Constraint{E: genExpr(rng, vars, 1+rng.Intn(3)), Truthy: rng.Intn(2) == 0})
	}
	return p
}

// gridWords are the 25 per-variable seed words of the retired
// randomized search's deterministic grid, kept as a reference for what
// that search could reach.
var gridWords = []mem.Word{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 31, 32, 63, 64, 100, 127, 128, 200, 255, 256,
	1 << 12, 1 << 16, ^mem.Word(0), ^mem.Word(0) - 1, 1 << 63}

// bruteGridModel searches the grid of gridWords exhaustively with plain
// Holds evaluation — an independent reference for what the retired
// search could reach deterministically.
func bruteGridModel(p PathCondition) (Env, bool) {
	vars := p.Vars()
	env := make(Env, len(vars))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(vars) {
			return p.Holds(env)
		}
		for _, w := range gridWords {
			env[vars[i]] = w
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	if rec(0) {
		return env, true
	}
	return nil, false
}

// Property: any model the engine returns satisfies the condition.
func TestEngineModelsSatisfy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vars := []Var{NewVar("x", mem.Public), NewVar("y", mem.Public), NewVar("z", mem.Secret)}
	s := NewSolver()
	for i := 0; i < 400; i++ {
		p := genCond(rng, vars[:1+rng.Intn(3)])
		if env, ok := s.Solve(p); ok && !p.Holds(env) {
			t.Fatalf("case %d: returned model %v does not satisfy %v", i, env, p.conjuncts())
		}
	}
}

// Property: interval/known-bits propagation never excludes a real
// model — in particular it never declares UNSAT on a condition the
// grid reference can satisfy — and the search still finds a model
// there, so it reaches everything the retired grid search did.
func TestEnginePropagationRetainsModels(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	vars := []Var{NewVar("x", mem.Public), NewVar("y", mem.Public)}
	s := NewSolver()
	for i := 0; i < 250; i++ {
		p := genCond(rng, vars[:1+rng.Intn(2)])
		m, satisfiable := bruteGridModel(p)
		pv := p.Vars()
		vidx := make(map[string]int, len(pv))
		for j, v := range pv {
			vidx[v] = j
		}
		doms := make([]vdom, len(pv))
		for j := range doms {
			doms[j] = fullDom
		}
		live := propagate(p.conjuncts(), vidx, doms, false)
		if !satisfiable {
			continue
		}
		if !live {
			t.Fatalf("case %d: propagation declared UNSAT but %v satisfies %v", i, m, p.conjuncts())
		}
		for j, v := range pv {
			if !doms[j].contains(m[v]) {
				t.Fatalf("case %d: domain %+v of %s excludes model value %d", i, doms[j], v, m[v])
			}
		}
		if _, ok := s.Solve(p); !ok {
			t.Fatalf("case %d: grid-satisfiable condition reported unsolved", i)
		}
	}
}

// Property: solving a chain child-by-child (warm parent entries at
// every step) agrees exactly with solving the full chain from scratch
// in a fresh solver.
func TestEngineIncrementalMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	vars := []Var{NewVar("x", mem.Public), NewVar("y", mem.Public), NewVar("z", mem.Secret)}
	for i := 0; i < 150; i++ {
		p := genCond(rng, vars[:1+rng.Intn(3)])
		warm := NewSolver()
		var chain []PathCondition
		for n := p.n; n != nil; n = n.parent {
			chain = append(chain, PathCondition{n: n})
		}
		for j := len(chain) - 1; j >= 0; j-- { // oldest prefix first
			warm.Solve(chain[j])
		}
		wEnv, wOK := warm.Solve(p)
		cold := NewSolver()
		cEnv, cOK := cold.Solve(p)
		if wOK != cOK || fmt.Sprint(wEnv) != fmt.Sprint(cEnv) {
			t.Fatalf("case %d: incremental (%v,%v) != from-scratch (%v,%v) for %v",
				i, wEnv, wOK, cEnv, cOK, p.conjuncts())
		}
	}
}

// FuzzSolve drives the solver with genCond conditions over at most
// three variables: every model it returns satisfies its condition, a
// definite UNSAT never meets a condition the grid reference can solve,
// and a warm solver answers exactly like a fresh one.
func FuzzSolve(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed))
	}
	vars := []Var{NewVar("x", mem.Public), NewVar("y", mem.Public), NewVar("z", mem.Secret)}
	warm := NewSolver()
	f.Fuzz(func(t *testing.T, seed int64, nv uint8) {
		p := genCond(rand.New(rand.NewSource(seed)), vars[:1+int(nv%3)])
		fresh := NewSolver()
		env, ok := fresh.Solve(p)
		if ok && !p.Holds(env) {
			t.Fatalf("model %v does not satisfy %v", env, p.conjuncts())
		}
		if fresh.query(p).unsat {
			if m, sat := bruteGridModel(p); sat {
				t.Fatalf("definite UNSAT but %v satisfies %v", m, p.conjuncts())
			}
		}
		wEnv, wOK := warm.Solve(p)
		if wOK != ok || fmt.Sprint(wEnv) != fmt.Sprint(env) {
			t.Fatalf("warm (%v,%v) != fresh (%v,%v) for %v", wEnv, wOK, env, ok, p.conjuncts())
		}
	})
}

// Property: answers are a pure function of the query — identical
// across repeated calls, interleaved unrelated queries, and solver
// instances with different cache states.
func TestEngineDeterministicAcrossCacheStates(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	vars := []Var{NewVar("x", mem.Public), NewVar("y", mem.Public)}
	conds := make([]PathCondition, 40)
	for i := range conds {
		conds[i] = genCond(rng, vars[:1+rng.Intn(2)])
	}
	a, b := NewSolver(), NewSolver()
	type res struct {
		env string
		ok  bool
	}
	got := make([]res, len(conds))
	for i, p := range conds { // forward, cold cache
		env, ok := a.Solve(p)
		got[i] = res{fmt.Sprint(env), ok}
	}
	for i := len(conds) - 1; i >= 0; i-- { // reverse on another solver
		env, ok := b.Solve(conds[i])
		if r := (res{fmt.Sprint(env), ok}); r != got[i] {
			t.Fatalf("cond %d: call order changed the answer: %v vs %v", i, r, got[i])
		}
	}
	for i, p := range conds { // repeat = cache hits, same answers
		env, ok := a.Solve(p)
		if r := (res{fmt.Sprint(env), ok}); r != got[i] {
			t.Fatalf("cond %d: cache state changed the answer: %v vs %v", i, r, got[i])
		}
	}
}

// Fuzz the abstract domain directly: for random expressions and
// random variable domains containing a chosen assignment, the
// abstract evaluation must contain the concrete result.
func TestEngineDomainSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	vars := []Var{NewVar("x", mem.Public), NewVar("y", mem.Public)}
	vidx := map[string]int{"x": 0, "y": 1}
	for i := 0; i < 2000; i++ {
		env := Env{}
		doms := make([]vdom, len(vars))
		for j, v := range vars {
			w := mem.Word(rng.Uint64() >> uint(rng.Intn(64)))
			env[v.Name] = w
			d := fullDom
			switch rng.Intn(3) {
			case 0: // interval around w
				lo := w - mem.Word(rng.Intn(100))
				hi := w + mem.Word(rng.Intn(100))
				if lo <= w && w <= hi {
					d = ivl(lo, hi)
				}
			case 1: // some of w's bits known
				mask := mem.Word(rng.Uint64())
				d = vdom{lo: 0, hi: ^mem.Word(0), known: mask, bit: w & mask}.norm()
			}
			doms[j] = d
		}
		e := genExpr(rng, vars, 3)
		got := aeval(e, vidx, doms)
		if w := e.Eval(env).W; !got.contains(w) {
			t.Fatalf("case %d: aeval %+v excludes concrete value %d of %v under %v", i, got, w, e, env)
		}
	}
}

// Definite-UNSAT answers must be real proofs on the shapes the
// exploration emits: contradictory equalities, out-of-range pins,
// bit-mask conflicts, and the compiler's branch conditions ne(rel, 0)
// over nested offsets of the attacker index.
func TestEngineDefiniteUnsat(t *testing.T) {
	x := NewVar("x", mem.Public)
	s := NewSolver()
	test := func(rel isa.Opcode, a, b Expr) Expr { return Apply(isa.OpNe, Apply(rel, a, b), CW(0)) }
	xPlus1 := Apply(isa.OpAdd, x, CW(1))
	cases := []PathCondition{
		// kocher03: the bounds check taken and not taken.
		PathCondition{}.
			With(Constraint{E: test(isa.OpLt, x, CW(4)), Truthy: false}).
			With(Constraint{E: test(isa.OpLt, x, CW(4)), Truthy: true}),
		// kocher12: x+1 < 4 against a pinned x+1+4097 past the array.
		PathCondition{}.
			With(Constraint{E: test(isa.OpLt, xPlus1, CW(4)), Truthy: true}).
			With(Constraint{E: Apply(isa.OpEq, Apply(isa.OpAdd, xPlus1, CW(4097)), CW(4101)), Truthy: true}),
		PathCondition{}.
			With(Constraint{E: test(isa.OpLt, xPlus1, CW(4)), Truthy: true}).
			With(Constraint{E: Apply(isa.OpEq, Apply(isa.OpAdd, xPlus1, CW(4097)), CW(4108)), Truthy: true}),
		// specv1_04: x > 0 false and x < 4 false.
		PathCondition{}.
			With(Constraint{E: test(isa.OpGt, x, CW(0)), Truthy: false}).
			With(Constraint{E: test(isa.OpLt, x, CW(4)), Truthy: false}),
		PathCondition{}.
			With(Constraint{E: Apply(isa.OpEq, x, CW(7)), Truthy: true}).
			With(Constraint{E: Apply(isa.OpEq, x, CW(8)), Truthy: true}),
		PathCondition{}.
			With(Constraint{E: Apply(isa.OpLt, x, CW(4)), Truthy: true}).
			With(Constraint{E: Apply(isa.OpEq, Apply(isa.OpAdd, x, CW(0x40)), CW(0x48)), Truthy: true}),
		PathCondition{}.
			With(Constraint{E: Apply(isa.OpAnd, x, CW(1)), Truthy: false}).
			With(Constraint{E: Apply(isa.OpAnd, x, CW(1)), Truthy: true}),
		PathCondition{}.
			With(Constraint{E: Apply(isa.OpGe, x, CW(16)), Truthy: true}).
			With(Constraint{E: Apply(isa.OpLt, x, CW(16)), Truthy: true}),
	}
	for i, p := range cases {
		e := s.query(p)
		if !e.unsat {
			t.Errorf("case %d: expected a propagation UNSAT proof", i)
		}
		if e.ok || s.Feasible(p) {
			t.Errorf("case %d: unsatisfiable condition reported feasible", i)
		}
	}
	if s.Stats().DefiniteUnsats == 0 {
		t.Error("definite-UNSAT counter did not move")
	}

	// v11_04: the nested offset x-5+4105 pinned to 36861 is satisfiable.
	sat := PathCondition{}.With(Constraint{E: Apply(isa.OpEq, Apply(isa.OpAdd, Apply(isa.OpSub, x, CW(5)), CW(4105)), CW(36861)), Truthy: true})
	if env, ok := s.Solve(sat); !ok || env["x"] != 32761 {
		t.Errorf("v11_04 pin: Solve = %v, %v; want x=32761", env, ok)
	}
}

// The pinned-equality fast path: a SolveWith against a reachable
// target must solve through propagation's singleton domain, so the
// search evaluates exactly that one candidate.
func TestEnginePinnedEqualitySkipsProbing(t *testing.T) {
	x := NewVar("x", mem.Public)
	s := NewSolver()
	addr := Apply(isa.OpAdd, CW(0x40), x)
	env, ok := s.SolveWith(PathCondition{}, addr, 0x49)
	if !ok || env["x"] != 9 {
		t.Fatalf("SolveWith = %v, %v; want x=9", env, ok)
	}
	if st := s.Stats(); st.ProbeIters != 1 {
		t.Fatalf("pinned equality evaluated %d candidates; want 1", st.ProbeIters)
	}
}

// Vars is O(1) on the chain: the sorted set is cached per node.
func TestPathConditionVarsAllocFree(t *testing.T) {
	x, y := NewVar("x", mem.Public), NewVar("y", mem.Public)
	p := PathCondition{}.
		With(Constraint{E: Apply(isa.OpLt, y, CW(100)), Truthy: true}).
		With(Constraint{E: Apply(isa.OpGt, x, CW(2)), Truthy: true}).
		With(Constraint{E: Apply(isa.OpEq, x, y), Truthy: false})
	if got := p.Vars(); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("Vars = %v, want [x y]", got)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if len(p.Vars()) != 2 {
			t.Fatal("vars lost")
		}
	})
	if allocs != 0 {
		t.Fatalf("Vars allocates %.1f per call; want 0 (chain cache regression)", allocs)
	}
}

// Unmapped memory reads return the canonical zero expression without
// boxing a fresh interface value per call.
func TestMemoryReadUnmappedAllocFree(t *testing.T) {
	m := NewMemory()
	allocs := testing.AllocsPerRun(200, func() {
		if e := m.Read(0x1234); e != Zero {
			t.Fatal("unmapped read must be the canonical zero")
		}
	})
	if allocs != 0 {
		t.Fatalf("unmapped Read allocates %.1f per call; want 0", allocs)
	}
}

// The memo cache serves repeated queries and verified models.
func TestEngineCacheHits(t *testing.T) {
	x := NewVar("x", mem.Public)
	s := NewSolver()
	p := PathCondition{}.With(Constraint{E: Apply(isa.OpGt, x, CW(4)), Truthy: true})
	e1, ok1 := s.Solve(p)
	e2, ok2 := s.Solve(p)
	if !ok1 || !ok2 || fmt.Sprint(e1) != fmt.Sprint(e2) {
		t.Fatalf("repeat solve drifted: (%v,%v) vs (%v,%v)", e1, ok1, e2, ok2)
	}
	st := s.Stats()
	if st.CacheHits == 0 {
		t.Fatalf("no cache hit on repeated query: %+v", st)
	}
	if st.Queries < 2 {
		t.Fatalf("query counter did not move: %+v", st)
	}
}
