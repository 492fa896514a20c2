// The symbolic value domain of the unified speculation engine.
//
// Symbolic analysis carries no exploration loop and no copy of the
// semantics of its own: internal/sched's domain-parameterized engine
// drives the §4.1 worst-case schedule strategy, and internal/core's
// State applies the Table 1 rules — fetch, execute with its hazard
// checks, retire — over any core.Domain. The symbolic machine embeds
// that State at expressions and supplies the domain: labeled
// expressions in registers and memory, path conditions from resolved
// input-dependent branches, and angr-style leak-hunting address
// concretization (§4.2). The engine's work-stealing pool, fingerprint
// dedup, budgets, and deterministic violation merge therefore apply to
// symbolic runs exactly as to concrete ones.
//
// Besides the value operations, this file holds what only a symbolic
// configuration has: the world split at a branch whose condition is
// not one concrete world (clone per feasible arm, extend the path
// condition, record the arm), the path condition in the fingerprint,
// and the witness model.
//
// Like the original tool, the symbolic domain exercises a subset of
// the semantics: conditional-branch speculation and store-forwarding
// variants (Spectre v1, v1.1, v4), with indirect jumps and returns
// followed architecturally. Aliasing prediction (execute i : fwd j)
// stalls, and a symbolic indirect-jump target ends the path, as both
// are outside the modeled subset.
package pitchfork

import (
	"fmt"

	"pitchfork/internal/core"
	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
	"pitchfork/internal/symx"
)

// SymMachine is the initial configuration for a symbolic analysis:
// registers and memory hold symbolic expressions; unconstrained
// attacker inputs and secrets are symx variables.
type SymMachine struct {
	Prog *isa.Program
	Regs map[isa.Reg]symx.Expr
	Mem  *symx.Memory
	PC   isa.Addr
}

// NewSym builds a symbolic initial configuration from a program,
// seeding memory with the (labeled, concrete) data image.
func NewSym(prog *isa.Program) *SymMachine {
	m := &SymMachine{
		Prog: prog,
		Regs: make(map[isa.Reg]symx.Expr),
		Mem:  symx.NewMemory(),
		PC:   prog.Entry,
	}
	for a, v := range prog.Data {
		m.Mem.Write(a, symx.C(v))
	}
	return m
}

// SetReg binds a register to an expression.
func (m *SymMachine) SetReg(r isa.Reg, e symx.Expr) *SymMachine {
	m.Regs[r] = e
	return m
}

// SetMem binds a memory cell to an expression.
func (m *SymMachine) SetMem(a mem.Word, e symx.Expr) *SymMachine {
	m.Mem.Write(a, e)
	return m
}

// symStall reports a directive outside what the symbolic domain
// applies.
func symStall(format string, args ...any) error {
	return fmt.Errorf("pitchfork: symbolic %w: "+format, append([]any{core.ErrStall}, args...)...)
}

// Addr's refusals: a symbolic jump target is outside the modeled
// subset, and a symbolic address may have no model to pin it to.
var (
	errSymbolicTarget = symStall("indirect target outside the modeled subset")
	errNoModel        = symStall("address concretization failed")
)

// mixExpr absorbs an expression into a running hash by its structural
// fingerprint (a nil expression hashes to a fixed sentinel).
func mixExpr(h uint64, e symx.Expr) uint64 { return mem.Mix64(h ^ symx.Fingerprint(e)) }

// secretExpr reports whether an expression carries a secret label.
func secretExpr(e symx.Expr) bool { return e != nil && e.Label().IsSecret() }

// symMachine is the symbolic domain: one speculative machine
// configuration over expressions, implementing core.Explorable. The
// solver and concretizer are shared across clones — they are
// stateless per query (deterministically self-seeding), so concurrent
// exploration workers may use them without coordination.
//
// The configuration is copy-on-write end to end: registers are a flat
// cell file (symx.RegFile) copied on the first write after a fork,
// memory is an overlay chain (symx.Memory) whose secret-cell index is
// kept current on write, and the RSB journal and reorder buffer are
// core's — so Fork is O(1) and each fork pays only for what it
// subsequently changes. No per-state step walks memory: the
// concretizer reads the secret-cell index as is.
type symMachine struct {
	core.State[symx.Expr, *symx.RegFile, *symx.Memory]

	pcond symx.PathCondition

	// pinned and pinnedAt are the address Addr last concretized and the
	// word it chose, whose equality Commit adds to the path condition
	// (pinned is nil when the address was concrete already); split is
	// the condition Cond last found spanning several worlds. Both are
	// per-step scratch, not part of the configuration.
	pinned   symx.Expr
	pinnedAt mem.Word
	split    symx.Expr

	solver *symx.Solver
	concr  *symx.Concretizer
}

// newSymMachine lowers an initial configuration into the domain.
func newSymMachine(m *SymMachine) *symMachine {
	solver := symx.NewSolver()
	s := &symMachine{solver: solver, concr: symx.NewConcretizer(solver)}
	s.State = core.NewState[symx.Expr](m.Prog.Table(), symx.NewRegFile(), m.Mem.Clone(), m.PC, s)
	for r, e := range m.Regs {
		s.Regs.Write(r, e)
	}
	return s
}

// clone forks the machine in O(1). Expressions are immutable and
// shared; the configuration forks copy-on-write; the path-condition
// prefix is shared (With copies on extension); solver and concretizer
// are shared by design.
func (s *symMachine) clone() *symMachine {
	c := &symMachine{pcond: s.pcond, solver: s.solver, concr: s.concr}
	s.CloneInto(&c.State, c)
	return c
}

// Fork implements core.Explorable.
func (s *symMachine) Fork() core.Explorable { return s.clone() }

// View implements core.Explorable.
func (s *symMachine) View(i int) (v core.TransientView, ok bool) {
	t, ok := s.Buf.Get(i)
	if ok {
		core.FillView(&v, t, secretExpr)
	}
	return v, ok
}

// Witness solves the path condition for a satisfying assignment of
// the symbolic inputs — the model each violation carries.
func (s *symMachine) Witness() map[string]uint64 {
	env, ok := s.solver.Solve(s.pcond)
	if !ok {
		return nil
	}
	out := make(map[string]uint64, len(env))
	for k, w := range env {
		out[k] = uint64(w)
	}
	return out
}

// ---------------------------------------------------------------------
// The value domain (core.Domain).
// ---------------------------------------------------------------------

// Lift lifts an immediate into the domain: a constant expression.
func (s *symMachine) Lift(v mem.Value) symx.Expr { return symx.C(v) }

// Reg is ρ(r): an unwritten register reads as the canonical public
// zero (boxing a fresh Const here would make every such resolve an
// allocation, on the operand-resolution hot path).
func (s *symMachine) Reg(r isa.Reg) symx.Expr {
	if e, ok := s.Regs.Read(r); ok {
		return e
	}
	return symx.Zero
}

// Eval is symx.Apply for the machine's scratch-backed operand lists:
// Apply's default (unsimplified) path keeps the caller's slice as
// Op.Args, so when the result still aliases args — detected by element
// pointer identity — the slice is copied out of the scratch before the
// expression escapes into long-lived state (transients, path
// conditions). Simplified results never alias and cost nothing extra.
func (s *symMachine) Eval(op isa.Opcode, args []symx.Expr) (symx.Expr, error) {
	e := symx.Apply(op, args...)
	if o, ok := e.(symx.Op); ok && len(args) > 0 && len(o.Args) == len(args) && &o.Args[0] == &args[0] {
		o.Args = append([]symx.Expr(nil), args...)
		return o, nil
	}
	return e, nil
}

// Addr forms the address as a sum (symx.Apply's OpAdd simplification
// always rebuilds the operand list it keeps, so it needs no copy out
// of the scratch) and pins a symbolic one: a jump target must already
// be concrete, since indirect jumps are followed architecturally; a
// load or store address is concretized.
func (s *symMachine) Addr(i int, k core.TKind, args []symx.Expr) (mem.Value, error) {
	ae := symx.Apply(isa.OpAdd, args...)
	s.pinned = nil
	if v, ok := ae.Concrete(); ok {
		return mem.V(v.W, ae.Label()), nil
	}
	if k == core.TJmpi {
		return mem.Value{}, errSymbolicTarget
	}
	w, ok := s.concretize(i, k, ae)
	if !ok {
		return mem.Value{}, errNoModel
	}
	s.pinned, s.pinnedAt = ae, w
	return mem.V(w, ae.Label()), nil
}

// Commit adds the pinned address's equality to the path condition.
func (s *symMachine) Commit() {
	if s.pinned != nil {
		s.pcond = s.pcond.With(symx.Constraint{E: symx.Apply(isa.OpEq, s.pinned, symx.CW(s.pinnedAt)), Truthy: true})
		s.pinned = nil
	}
}

// Load reads µ(a); an unwritten cell is a public zero.
func (s *symMachine) Load(a mem.Word) symx.Expr { return s.Mem.Read(a) }

// Cond decides a concrete condition like the concrete machine, and
// keeps an input-dependent one for the world split.
func (s *symMachine) Cond(e symx.Expr) (bool, mem.Label, bool) {
	if v, ok := e.Concrete(); ok {
		return v.W != 0, v.L, true
	}
	s.split = e
	return false, 0, false
}

// concretize pins the symbolic address ae of the load or store at
// buffer index i, hunting for leaks: a load lands on a secret cell if
// the path allows it. A store is interesting when it *aliases* a later
// load (the Spectre v1.1 shape of Figure 6), so for a store the
// concretizer first tries the addresses of younger loads in the
// buffer, then secret cells, then any model — mirroring how angr's
// pluggable concretization strategies are used for targeted hunting.
func (s *symMachine) concretize(i int, k core.TKind, ae symx.Expr) (mem.Word, bool) {
	if k == core.TLoad {
		return s.concr.Concretize(ae, s.pcond, s.Mem)
	}
	seen := make(map[mem.Word]bool)
	for j := i + 1; j <= s.Buf.Max(); j++ {
		ld, _ := s.Buf.Get(j)
		if ld.Kind != core.TLoad {
			continue
		}
		largs, ok := s.ResolveOperands(j, ld.Args)
		if !ok {
			continue
		}
		lv, ok := symx.Apply(isa.OpAdd, largs...).Concrete()
		if !ok || seen[lv.W] {
			continue
		}
		seen[lv.W] = true
		if _, ok := s.solver.SolveWith(s.pcond, ae, lv.W); ok {
			return lv.W, true
		}
	}
	return s.concr.Concretize(ae, s.pcond, s.Mem)
}

// ---------------------------------------------------------------------
// Directive application (core.Explorable.Successors).
// ---------------------------------------------------------------------

// Step is core's rules minus aliasing prediction, which is outside the
// symbolic subset.
func (s *symMachine) Step(d core.Directive) ([]core.Observation, error) {
	if d.Kind == core.DExecFwd {
		return nil, symStall("directive %q not in the symbolic subset", d)
	}
	return s.State.Step(d)
}

// Successors implements core.Explorable: one directive of the
// speculative semantics over symbolic state. Deterministic steps mutate
// the receiver; a branch whose condition is input-dependent returns one
// successor per feasible world.
func (s *symMachine) Successors(d core.Directive) ([]core.Successor, error) {
	obs, err := s.Step(d)
	if err == core.ErrSplit {
		return s.splitBranch(d)
	}
	if err != nil {
		return nil, err
	}
	return s.Self(s, d, obs), nil
}

// splitBranch forks the machine at the delayed branch d.I, whose
// condition Cond found input-dependent, into each feasible world:
// extending the path condition and recording the arm in the
// directive's Arm field so every completed path keeps a distinct (and
// distinctly rendered) schedule. The feasible worlds are planned
// before any state changes, and the receiver is reused for the last
// arm (cloning only N-1 times).
func (s *symMachine) splitBranch(d core.Directive) ([]core.Successor, error) {
	cond := s.split
	var worlds [2]symx.PathCondition
	var taken [2]bool
	n := 0
	for _, t := range [2]bool{true, false} {
		pc := s.pcond.With(symx.Constraint{E: cond, Truthy: t})
		if s.solver.Feasible(pc) {
			worlds[n], taken[n] = pc, t
			n++
		}
	}
	if n == 0 {
		return nil, symStall("branch condition infeasible in both worlds")
	}
	succs := make([]core.Successor, n)
	for k := range n {
		arm := s
		if k < n-1 {
			arm = s.clone()
		}
		arm.pcond = worlds[k]
		ad := d
		ad.Arm = core.ArmNotTaken
		if taken[k] {
			ad.Arm = core.ArmTaken
		}
		succs[k] = core.Successor{M: arm, D: ad, Obs: arm.Branch(d.I, taken[k], cond.Label())}
	}
	return succs, nil
}

// ---------------------------------------------------------------------
// Fingerprinting (core.Explorable.Fingerprint) — enables the engine's
// dedup table for symbolic states. The path condition is part of the
// configuration: equal machine state under different constraints has
// different feasible futures.
// ---------------------------------------------------------------------

// Fingerprint hashes the symbolic configuration to 64 bits; equal
// configurations hash equal.
func (s *symMachine) Fingerprint() uint64 {
	h := mem.Mix64(s.HashState(mixExpr) ^ s.RSB.Hash())
	return mem.Mix64(h ^ s.pcond.Fingerprint())
}
