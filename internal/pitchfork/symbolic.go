// The symbolic value domain of the unified speculation engine.
//
// Symbolic analysis no longer carries its own fetch/execute/retire
// exploration loop: internal/sched's domain-parameterized engine
// drives the §4.1 worst-case schedule strategy, and this file only
// implements the sched.Machine contract over symbolic state — labeled
// expressions in registers and memory, path conditions from resolved
// input-dependent branches, and angr-style leak-hunting address
// concretization (§4.2). The engine's work-stealing pool, fingerprint
// dedup, budgets, and deterministic violation merging therefore apply
// to symbolic runs exactly as to concrete ones.
//
// The domain reuses every rule that never looks at a value: transients
// are core.TransientOf[symx.Expr] in a core.Buffer, and fetch, the
// register resolve function, retire, the engine's buffer view and the
// entry hash are internal/core's and internal/sched's, instantiated at
// expressions. This file supplies the value-specific pieces (lifting
// an immediate to a constant expression, an expression's hash and
// secrecy, the public-zero default of an unwritten register) and the
// execute stage, where solver forks and address concretization make
// the symbolic rules genuinely different.
//
// Like the original tool, the symbolic domain exercises a subset of
// the semantics: conditional-branch speculation and store-forwarding
// variants (Spectre v1, v1.1, v4), with indirect jumps and returns
// followed architecturally. An input-dependent branch forks the
// exploration into every feasible world (a domain-level fork the
// engine handles uniformly); a symbolic indirect-jump target ends the
// path, as it is outside the modeled subset.
package pitchfork

import (
	"fmt"

	"pitchfork/internal/core"
	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
	"pitchfork/internal/sched"
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

// symStall reports a non-applicable directive; the engine treats any
// step error as a stall and ends (or redirects) the path.
func symStall(format string, args ...any) error {
	return fmt.Errorf("pitchfork: symbolic stall: "+format, args...)
}

// liftExpr lifts an immediate into the domain: a constant expression.
func liftExpr(v mem.Value) symx.Expr { return symx.C(v) }

// mixExpr absorbs an expression into a running hash by its structural
// fingerprint (a nil expression hashes to a fixed sentinel).
func mixExpr(h uint64, e symx.Expr) uint64 { return mem.Mix64(h ^ symx.Fingerprint(e)) }

// secretExpr reports whether an expression carries a secret label.
func secretExpr(e symx.Expr) bool { return e != nil && e.Label().IsSecret() }

// symMachine is the symbolic domain: one speculative machine
// configuration over expressions, implementing sched.Machine. The
// solver and concretizer are shared across clones — they are
// stateless per query (deterministically self-seeding), so concurrent
// exploration workers may use them without coordination.
//
// The configuration is copy-on-write end to end: registers are a flat
// cell file (symx.RegFile) copied on the first write after a fork,
// memory is an overlay chain (symx.Memory) whose secret-cell index is
// kept current on write, the RSB journal shares its tail, and the
// reorder buffer is the concrete machine's core.Buffer of
// core.TransientOf, instantiated at expressions — so Clone is O(1),
// each fork pays only for what it subsequently changes, and transients
// come from the buffer's arena.
// No per-state step walks memory: the concretizer reads the
// secret-cell index as is. The domain never sets a transient's
// aliasing-prediction fields (it handles Table 1 minus §3.5, like the
// original tool).
type symMachine struct {
	code    *isa.Table // the program's instructions, shared by clones
	regs    *symx.RegFile
	mem     *symx.Memory
	pc      isa.Addr
	buf     *core.Buffer[core.TransientOf[symx.Expr]]
	rsb     *core.RSB
	pcond   symx.PathCondition
	retired int

	solver *symx.Solver
	concr  *symx.Concretizer

	// succ is the single-successor scratch self() returns, so
	// deterministic steps stay allocation-free (see sched.Machine.Step's
	// validity contract).
	succ [1]sched.Successor

	// argScratch is the operand-resolution scratch resolveArgs reuses
	// across steps; never shared (Clone leaves it nil) and never
	// retained (applyArgs copies when an expression would keep it).
	argScratch []symx.Expr
}

// newSymMachine lowers an initial configuration into the domain.
func newSymMachine(m *SymMachine) *symMachine {
	solver := symx.NewSolver()
	s := &symMachine{
		code:   m.Prog.Table(),
		regs:   symx.NewRegFile(),
		mem:    m.Mem.Clone(),
		pc:     m.PC,
		buf:    core.NewBuffer[core.TransientOf[symx.Expr]](),
		rsb:    core.NewRSB(core.RSBAttackerChoice),
		solver: solver,
		concr:  symx.NewConcretizer(solver),
	}
	for r, e := range m.Regs {
		s.regs.Write(r, e)
	}
	return s
}

// Clone implements sched.Machine in O(1). Expressions are immutable
// and shared; registers, memory, RSB, and the reorder buffer fork
// copy-on-write; the path-condition prefix is shared (With copies on
// extension); solver and concretizer are shared by design.
func (s *symMachine) Clone() sched.Machine {
	return &symMachine{
		code:    s.code,
		regs:    s.regs.Clone(),
		mem:     s.mem.Clone(),
		pc:      s.pc,
		buf:     s.buf.Clone(),
		rsb:     s.rsb.Clone(),
		pcond:   s.pcond,
		retired: s.retired,
		solver:  s.solver,
		concr:   s.concr,
	}
}

// ---------------------------------------------------------------------
// Shape accessors (sched.Machine).
// ---------------------------------------------------------------------

func (s *symMachine) PC() isa.Addr { return s.pc }

func (s *symMachine) Instr() *isa.Instr { return s.code.At(s.pc) }

func (s *symMachine) RetiredCount() int { return s.retired }

func (s *symMachine) BufLen() int { return s.buf.Len() }

func (s *symMachine) BufMin() int { return s.buf.Min() }

func (s *symMachine) BufMax() int { return s.buf.Max() }

func (s *symMachine) View(i int) (v sched.TransientView, ok bool) {
	t, ok := s.buf.Get(i)
	if ok {
		sched.FillView(&v, t, secretExpr)
	}
	return v, ok
}

func (s *symMachine) RSBTop() (isa.Addr, bool) { return s.rsb.Top() }

// PeekJmpi resolves an indirect jump's architectural target; a target
// that stays symbolic is outside the modeled subset, so ok is false
// and the engine falls through to draining pending work.
func (s *symMachine) PeekJmpi(in *isa.Instr) (isa.Addr, bool) {
	args, ok := s.resolveArgs(s.BufMax()+1, in.Args)
	if !ok {
		return 0, false
	}
	tv, ok := addrExpr(args).Concrete()
	if !ok {
		return 0, false
	}
	return tv.W, true
}

// PeekRet predicts through the in-memory return address when the RSB
// is empty, like the concrete machine.
func (s *symMachine) PeekRet() (isa.Addr, bool) {
	sp, ok := core.Resolve(s.buf, s.BufMax()+1, mem.RSP, s.readReg)
	if !ok {
		return 0, false
	}
	sv, ok := sp.Concrete()
	if !ok {
		return 0, false
	}
	tv, ok := s.mem.Read(sv.W).Concrete()
	if !ok {
		return 0, false
	}
	return tv.W, true
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
// Register/operand resolution over the speculative buffer.
// ---------------------------------------------------------------------

// readReg is ρ(r) for the register resolve function: an unwritten
// register reads as the canonical public zero (boxing a fresh Const
// here would make every such resolve an allocation, on the
// operand-resolution hot path).
func (s *symMachine) readReg(r isa.Reg) symx.Expr {
	if e, ok := s.regs.Read(r); ok {
		return e
	}
	return symx.Zero
}

func (s *symMachine) resolveOperand(i int, o isa.Operand) (symx.Expr, bool) {
	if !o.IsReg {
		return liftExpr(o.Imm), true
	}
	return core.Resolve(s.buf, i, o.Reg, s.readReg)
}

// resolveArgs resolves an operand list into the machine's scratch
// buffer — the engine's hottest allocation site before it was pooled.
// The returned slice is valid until the next resolveArgs call on this
// machine; callers that build an expression which may retain it must
// go through applyArgs.
func (s *symMachine) resolveArgs(i int, os []isa.Operand) ([]symx.Expr, bool) {
	if cap(s.argScratch) < len(os) {
		s.argScratch = make([]symx.Expr, len(os))
	}
	out := s.argScratch[:len(os)]
	for k, o := range os {
		e, ok := s.resolveOperand(i, o)
		if !ok {
			return nil, false
		}
		out[k] = e
	}
	return out, true
}

// applyArgs is symx.Apply for scratch-backed argument slices: Apply's
// default (unsimplified) path keeps the caller's slice as Op.Args, so
// when the result still aliases args — detected by element pointer
// identity — the slice is copied out of the scratch before the
// expression escapes into long-lived state (transients, path
// conditions). Simplified results never alias and cost nothing extra.
func (s *symMachine) applyArgs(op isa.Opcode, args []symx.Expr) symx.Expr {
	e := symx.Apply(op, args...)
	if o, ok := e.(symx.Op); ok && len(args) > 0 && len(o.Args) == len(args) && &o.Args[0] == &args[0] {
		fresh := make([]symx.Expr, len(args))
		copy(fresh, args)
		o.Args = fresh
		return o
	}
	return e
}

// addrExpr needs no retention copy: symx.Apply's OpAdd simplification
// always rebuilds the operand list it keeps.
func addrExpr(args []symx.Expr) symx.Expr {
	return symx.Apply(isa.OpAdd, args...)
}

// ---------------------------------------------------------------------
// Directive application (sched.Machine.Step).
// ---------------------------------------------------------------------

// self wraps the in-place-mutated receiver as the single successor,
// reusing the machine's scratch slot.
func (s *symMachine) self(d core.Directive, obs ...core.Observation) ([]sched.Successor, error) {
	s.succ[0] = sched.Successor{M: s, D: d, Obs: obs}
	return s.succ[:], nil
}

// Step implements sched.Machine: one directive of the speculative
// semantics over symbolic state. Deterministic steps mutate the
// receiver; an input-dependent branch resolution returns one cloned
// successor per feasible world.
func (s *symMachine) Step(d core.Directive) ([]sched.Successor, error) {
	switch d.Kind {
	case core.DFetch, core.DFetchGuess, core.DFetchTarget:
		pc, err := core.StepFetch(s.buf, s.rsb, s.Instr(), s.pc, d, liftExpr)
		if err != nil {
			return nil, err
		}
		s.pc = pc
		return s.self(d)
	case core.DExecute:
		return s.stepExecute(d)
	case core.DExecValue:
		return s.stepExecValue(d)
	case core.DExecAddr:
		return s.stepExecAddr(d)
	case core.DRetire:
		o, wrote, err := core.StepRetire(s.buf, s.regs, s.mem, d)
		if err != nil {
			return nil, err
		}
		s.retired++
		if wrote {
			return s.self(d, o)
		}
		return s.self(d)
	}
	return nil, symStall("directive %q not in the symbolic subset", d)
}

func (s *symMachine) stepExecute(d core.Directive) ([]sched.Successor, error) {
	t, ok := s.buf.Get(d.I)
	if !ok {
		return nil, symStall("index %d not in buffer [%d,%d]", d.I, s.BufMin(), s.BufMax())
	}
	if s.buf.FenceBefore(d.I) {
		return nil, symStall("fence pending before index %d", d.I)
	}
	switch t.Kind {
	case core.TOp:
		return s.execOp(d, t)
	case core.TBr:
		return s.execBranch(d, t)
	case core.TJmpi:
		return s.execJmpi(d, t)
	case core.TLoad:
		return s.execLoad(d, t)
	}
	return nil, symStall("index %d has no symbolic execute rule", d.I)
}

func (s *symMachine) execOp(d core.Directive, t *core.TransientOf[symx.Expr]) ([]sched.Successor, error) {
	args, ok := s.resolveArgs(d.I, t.Args)
	if !ok {
		return nil, symStall("operands unresolved at %d", d.I)
	}
	s.buf.SetT(d.I, core.TransientOf[symx.Expr]{Kind: core.TValue, Dst: t.Dst, Val: s.applyArgs(t.Op, args)})
	return s.self(d)
}

// execBranch resolves a delayed conditional branch. A concrete
// condition settles like the concrete machine; an input-dependent one
// forks into each feasible world, extending the path condition and
// recording the arm in the directive's Arm field so every completed
// path keeps a distinct (and distinctly rendered) schedule.
func (s *symMachine) execBranch(d core.Directive, t *core.TransientOf[symx.Expr]) ([]sched.Successor, error) {
	args, ok := s.resolveArgs(d.I, t.Args)
	if !ok {
		return nil, symStall("branch condition unresolved")
	}
	cond := s.applyArgs(t.Op, args)
	if cv, ok := cond.Concrete(); ok {
		actual := t.False
		if cv.W != 0 {
			actual = t.True
		}
		return []sched.Successor{{M: s, D: d, Obs: s.settleControl(d.I, actual, cv.L)}}, nil
	}
	// Plan the feasible worlds before touching any state, then reuse
	// the receiver for the last arm (cloning only N-1 times).
	type armPlan struct {
		taken bool
		pcond symx.PathCondition
	}
	var plans []armPlan
	for _, taken := range []bool{true, false} {
		pc := s.pcond.With(symx.Constraint{E: cond, Truthy: taken})
		if s.solver.Feasible(pc) {
			plans = append(plans, armPlan{taken: taken, pcond: pc})
		}
	}
	if len(plans) == 0 {
		return nil, symStall("branch condition infeasible in both worlds")
	}
	succs := make([]sched.Successor, len(plans))
	for k, p := range plans {
		arm := s
		if k < len(plans)-1 {
			arm = s.Clone().(*symMachine)
		}
		arm.pcond = p.pcond
		actual := t.False
		ad := d
		ad.Arm = core.ArmNotTaken
		if p.taken {
			actual = t.True
			ad.Arm = core.ArmTaken
		}
		succs[k] = sched.Successor{M: arm, D: ad, Obs: arm.settleControl(d.I, actual, cond.Label())}
	}
	return succs, nil
}

func (s *symMachine) execJmpi(d core.Directive, t *core.TransientOf[symx.Expr]) ([]sched.Successor, error) {
	args, ok := s.resolveArgs(d.I, t.Args)
	if !ok {
		return nil, symStall("jump target operands unresolved")
	}
	ae := addrExpr(args)
	tv, ok := ae.Concrete()
	if !ok {
		return nil, symStall("symbolic indirect target: outside the modeled subset")
	}
	return []sched.Successor{{M: s, D: d, Obs: s.settleControl(d.I, tv.W, ae.Label())}}, nil
}

// settleControl installs the resolved jump at index i, rolling back on
// a wrong guess, and returns the jump observation with the deciding
// expression's label.
func (s *symMachine) settleControl(i int, actual isa.Addr, l mem.Label) []core.Observation {
	t, _ := s.buf.Get(i)
	if actual == t.Guess {
		s.buf.SetT(i, core.TransientOf[symx.Expr]{Kind: core.TJump, Target: actual})
		return []core.Observation{core.JumpObs(actual, l)}
	}
	s.buf.TruncateFrom(i)
	s.rsb.Rollback(i)
	s.buf.AppendT(core.TransientOf[symx.Expr]{Kind: core.TJump, Target: actual})
	s.pc = actual
	return []core.Observation{core.RollbackObs(), core.JumpObs(actual, l)}
}

func (s *symMachine) execLoad(d core.Directive, t *core.TransientOf[symx.Expr]) ([]sched.Successor, error) {
	args, ok := s.resolveArgs(d.I, t.Args)
	if !ok {
		return nil, symStall("load address operands unresolved")
	}
	ae := addrExpr(args)
	aw, ok := s.concr.Concretize(ae, s.pcond, s.mem)
	if !ok {
		return nil, symStall("load address concretization failed")
	}
	// Most recent prior store with a resolved matching address decides
	// forwarding; its data must be resolved before any state mutates.
	fwdFrom := core.NoDep
	var fwdVal symx.Expr
	for j := d.I - 1; j >= s.buf.Min(); j-- {
		st, _ := s.buf.Get(j)
		if !st.IsResolvedStoreTo(aw) {
			continue
		}
		if !st.ValKnown {
			return nil, symStall("matching store at %d has unresolved data", j)
		}
		fwdFrom, fwdVal = j, st.SVal
		break
	}
	if _, concrete := ae.Concrete(); !concrete {
		s.pcond = s.pcond.With(symx.Constraint{E: symx.Apply(isa.OpEq, ae, symx.CW(aw)), Truthy: true})
	}
	l := ae.Label()
	if fwdFrom != core.NoDep {
		// load-execute-forward
		s.buf.SetT(d.I, core.TransientOf[symx.Expr]{
			Kind: core.TValue, Dst: t.Dst, Val: fwdVal,
			FromLoad: true, Dep: fwdFrom, DataAddr: aw, PP: t.PP,
		})
		return s.self(d, core.FwdObs(aw, l))
	}
	// load-execute-nodep
	s.buf.SetT(d.I, core.TransientOf[symx.Expr]{
		Kind: core.TValue, Dst: t.Dst, Val: s.mem.Read(aw),
		FromLoad: true, Dep: core.NoDep, DataAddr: aw, PP: t.PP,
	})
	return s.self(d, core.ReadObs(aw, l))
}

func (s *symMachine) stepExecValue(d core.Directive) ([]sched.Successor, error) {
	t, ok := s.buf.Get(d.I)
	if !ok || t.Kind != core.TStore {
		return nil, symStall("execute:value needs a store at %d", d.I)
	}
	if s.buf.FenceBefore(d.I) {
		return nil, symStall("fence pending before index %d", d.I)
	}
	if t.ValKnown {
		return nil, symStall("store value already resolved")
	}
	v, ok := s.resolveOperand(d.I, t.Src)
	if !ok {
		return nil, symStall("store data operand unresolved")
	}
	// store-execute-value
	t, _ = s.buf.Edit(d.I)
	t.ValKnown = true
	t.SVal = v
	return s.self(d)
}

func (s *symMachine) stepExecAddr(d core.Directive) ([]sched.Successor, error) {
	t, ok := s.buf.Get(d.I)
	if !ok || t.Kind != core.TStore {
		return nil, symStall("execute:addr needs a store at %d", d.I)
	}
	if s.buf.FenceBefore(d.I) {
		return nil, symStall("fence pending before index %d", d.I)
	}
	if t.AddrKnown {
		return nil, symStall("store address already resolved")
	}
	args, ok := s.resolveArgs(d.I, t.Args)
	if !ok {
		return nil, symStall("store address operands unresolved")
	}
	ae := addrExpr(args)
	aw, ok := s.concretizeStore(d.I, ae)
	if !ok {
		return nil, symStall("store address concretization failed")
	}
	if _, concrete := ae.Concrete(); !concrete {
		s.pcond = s.pcond.With(symx.Constraint{E: symx.Apply(isa.OpEq, ae, symx.CW(aw)), Truthy: true})
	}
	l := ae.Label()
	// Forwarding-correctness check over all later resolved loads
	// (store-execute-addr-*): a hazard is the earliest k > i with
	// (ak = a ∧ jk < i) ∨ (jk = i ∧ ak ≠ a).
	hazardAt, restart := 0, isa.Addr(0)
	for k := d.I + 1; k <= s.BufMax(); k++ {
		lv, _ := s.buf.Get(k)
		if lv.Kind != core.TValue || !lv.FromLoad {
			continue
		}
		if (lv.DataAddr == aw && lv.Dep < d.I) || (lv.Dep == d.I && lv.DataAddr != aw) {
			hazardAt, restart = k, lv.PP
			break
		}
	}
	t, _ = s.buf.Edit(d.I)
	t.AddrKnown = true
	t.SAddr = mem.V(aw, l)
	if hazardAt == 0 {
		// store-execute-addr-ok
		return s.self(d, core.FwdObs(aw, l))
	}
	// store-execute-addr-hazard: restart at the stale load's program
	// point, discarding it and everything younger.
	s.buf.TruncateFrom(hazardAt)
	s.rsb.Rollback(hazardAt)
	s.pc = restart
	return s.self(d, core.RollbackObs(), core.FwdObs(aw, l))
}

// concretizeStore pins a store's symbolic address. The leak-hunting
// policy differs from loads: a store is interesting when it *aliases*
// a later load (the Spectre v1.1 shape of Figure 6), so the
// concretizer first tries the addresses of younger loads in the
// buffer, then secret cells, then any model — mirroring how angr's
// pluggable concretization strategies are used for targeted hunting.
func (s *symMachine) concretizeStore(i int, ae symx.Expr) (mem.Word, bool) {
	if v, ok := ae.Concrete(); ok {
		return v.W, true
	}
	seen := make(map[mem.Word]bool)
	for k := i + 1; k <= s.BufMax(); k++ {
		ld, _ := s.buf.Get(k)
		if ld.Kind != core.TLoad {
			continue
		}
		largs, ok := s.resolveArgs(k, ld.Args)
		if !ok {
			continue
		}
		lv, ok := addrExpr(largs).Concrete()
		if !ok || seen[lv.W] {
			continue
		}
		seen[lv.W] = true
		if _, ok := s.solver.SolveWith(s.pcond, ae, lv.W); ok {
			return lv.W, true
		}
	}
	return s.concr.Concretize(ae, s.pcond, s.mem)
}

// ---------------------------------------------------------------------
// Fingerprinting (sched.Machine.Fingerprint) — enables the engine's
// dedup table for symbolic states. The path condition is part of the
// configuration: equal machine state under different constraints has
// different feasible futures.
// ---------------------------------------------------------------------

// Fingerprint hashes the symbolic configuration to 64 bits; equal
// configurations hash equal.
func (s *symMachine) Fingerprint() uint64 {
	h := mem.HashSeed
	mix := func(w uint64) { h = mem.Mix64(h ^ w) }
	mix(uint64(s.pc))
	mix(uint64(s.retired))
	// Registers and memory: order-independent sums over the cells,
	// maintained incrementally by the copy-on-write containers — O(1)
	// here instead of re-hashing every expression tree per state.
	mix(s.regs.HashSum())
	mix(s.mem.HashSum())
	h = core.HashBuffer(h, s.buf, mixExpr)
	mix(s.rsb.Hash())
	mix(s.pcond.Fingerprint())
	return h
}
