package core

import (
	"errors"
	"fmt"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

// ErrStall is wrapped by step errors that mean "this directive is not
// applicable in this configuration" — the schedule is not well-formed
// at this point. Distinguishing stalls from machine faults lets
// schedule generators probe directives safely.
var ErrStall = errors.New("directive not applicable")

// StepError reports why a directive could not step.
type StepError struct {
	Directive Directive
	Reason    string
	Fault     bool // true for machine faults (e.g. an operator given the wrong operand count)
}

// Error implements error.
func (e *StepError) Error() string {
	kind := "stall"
	if e.Fault {
		kind = "fault"
	}
	return fmt.Sprintf("core: %s on %q: %s", kind, e.Directive, e.Reason)
}

// Unwrap lets errors.Is(err, ErrStall) identify non-fault step errors.
func (e *StepError) Unwrap() error {
	if e.Fault {
		return nil
	}
	return ErrStall
}

func stall(d Directive, format string, args ...any) error {
	return &StepError{Directive: d, Reason: fmt.Sprintf(format, args...)}
}

// failed reports a domain error from the step d: a stall when the
// domain says the directive does not apply, a machine fault otherwise.
func failed(d Directive, what string, err error) error {
	return &StepError{Directive: d, Reason: what + ": " + err.Error(), Fault: !errors.Is(err, ErrStall)}
}

// Machine is the concrete reference machine: the configuration State
// over labeled words, together with the static program. It is its own
// value domain (the Domain methods below). Step mutates the machine in
// place; Clone forks it for exploration.
type Machine struct {
	State[mem.Value, *mem.RegisterFile, *mem.Memory]

	Prog *isa.Program

	// regs and data hold a clone's register file and memory (see
	// State.CloneInto).
	regs mem.RegisterFile
	data mem.Memory
}

// New builds a machine in the initial configuration of prog: empty
// buffer, empty RSB, PC at the entry point, memory seeded from the
// program's data image.
func New(prog *isa.Program) *Machine {
	m := &Machine{Prog: prog}
	m.State = NewState[mem.Value](prog.Table(), mem.NewRegisterFile(), prog.InitialMemory(), prog.Entry, m)
	return m
}

// Clone forks the machine; the program and its instruction snapshot
// are shared (a program is immutable during execution).
func (m *Machine) Clone() *Machine {
	c := &Machine{Prog: m.Prog}
	m.CloneInto(&c.State, c, &c.regs, &c.data)
	return c
}

// Fork implements Explorable.
func (m *Machine) Fork() Explorable { return m.Clone() }

// Successors implements Explorable: every directive has the single
// successor of the paper's small-step relation, the machine itself.
func (m *Machine) Successors(d Directive) ([]Successor, error) {
	obs, err := m.Step(d)
	if err != nil {
		return nil, err
	}
	return m.Self(m, d, obs), nil
}

// View implements Explorable.
func (m *Machine) View(i int) (v TransientView, ok bool) {
	t, ok := m.Buf.Get(i)
	if ok {
		FillView(&v, t, mem.Value.IsSecret)
	}
	return v, ok
}

// Witness implements Explorable: a concrete run's inputs are the given
// ones, so there is nothing to solve for.
func (m *Machine) Witness() map[string]uint64 { return nil }

// Halted reports whether execution is complete: nothing in flight and
// nothing to fetch (the PC is a halt point).
func (m *Machine) Halted() bool {
	if !m.Buf.Empty() {
		return false
	}
	return m.Instr() == nil
}

// LowEquiv reports C ≃pub C′: agreement on public register and memory
// values. It is meaningful for initial/terminal configurations, where
// the speculative state is empty.
func (m *Machine) LowEquiv(o *Machine) bool {
	return m.PC == o.PC && m.Regs.LowEquiv(o.Regs) && m.Mem.LowEquiv(o.Mem)
}

// ApproxEqual reports C ≈ C′: equal memories and register files, with
// speculative state (buffer, RSB, PC) disregarded — the equivalence of
// Theorem 3.2.
func (m *Machine) ApproxEqual(o *Machine) bool {
	return m.Regs.Equal(o.Regs) && m.Mem.Equal(o.Mem)
}

// Equal reports full configuration equality (used for terminal
// configurations, where it strengthens ≈ per Corollary B.8).
func (m *Machine) Equal(o *Machine) bool {
	if !m.ApproxEqual(o) || m.PC != o.PC {
		return false
	}
	if m.Buf.Len() != o.Buf.Len() {
		return false
	}
	for i, a := range m.Buf.All() {
		b, ok := o.Buf.Get(i)
		if !ok || a.String() != b.String() {
			return false
		}
	}
	return true
}

// The concrete value domain: labeled words, evaluated as they are.

// Lift implements Domain: an immediate already is a labeled word.
func (m *Machine) Lift(v mem.Value) mem.Value { return v }

// Reg implements Domain: ρ(r), public zero when never written.
func (m *Machine) Reg(r isa.Reg) mem.Value { return m.Regs.Read(r) }

// Eval implements Domain.
func (m *Machine) Eval(op isa.Opcode, args []mem.Value) (mem.Value, error) {
	return isa.Eval(op, args)
}

// Addr implements Domain: a concrete address already is one word.
func (m *Machine) Addr(_ int, _ TKind, args []mem.Value) (mem.Value, error) {
	return isa.EvalAddr(args)
}

// Commit implements Domain: a concrete address assumes nothing.
func (m *Machine) Commit() {}

// Load implements Domain.
func (m *Machine) Load(a mem.Word) mem.Value { return m.Mem.Read(a) }

// Cond implements Domain: a concrete condition is always one world.
func (m *Machine) Cond(v mem.Value) (bool, mem.Label, bool) { return v.W != 0, v.L, true }

// Step executes one small step C ↪→ᵈ C′, returning the observations o
// the step produces. A nil error means the directive applied; a
// returned error wrapping ErrStall means the schedule is not
// well-formed here and the machine is unchanged (ErrSplit, which only
// a symbolic domain raises, likewise leaves it unchanged). The
// returned slice is backed by a per-machine scratch buffer and is only
// valid until the next Step call on this machine; consume or copy it
// first (Run appends the values, RunRecorded copies).
func (s *State[V, R, M]) Step(d Directive) ([]Observation, error) {
	switch d.Kind {
	case DFetch, DFetchGuess, DFetchTarget:
		return nil, s.fetch(d)
	case DExecute:
		return s.execute(d)
	case DExecValue:
		return s.executeValue(d)
	case DExecAddr:
		return s.executeAddr(d)
	case DExecFwd:
		return s.executeFwd(d)
	case DRetire:
		return s.retire(d)
	}
	return nil, stall(d, "unknown directive kind")
}

// Run steps through the schedule, concatenating observations. On a
// step error it stops and returns the trace so far alongside the
// error.
func (m *Machine) Run(ds Schedule) (Trace, error) {
	var trace Trace
	for _, d := range ds {
		obs, err := m.Step(d)
		trace = append(trace, obs...)
		if err != nil {
			return trace, err
		}
	}
	return trace, nil
}

// StepRecord pairs a directive with its observations, for
// figure-style rendering of executions.
type StepRecord struct {
	Directive Directive
	Obs       []Observation
}

// RunRecorded is Run with per-step observation records. The records
// copy each step's observations out of the machine's scratch buffer.
func (m *Machine) RunRecorded(ds Schedule) ([]StepRecord, error) {
	recs := make([]StepRecord, 0, len(ds))
	for _, d := range ds {
		obs, err := m.Step(d)
		recs = append(recs, StepRecord{Directive: d, Obs: append([]Observation(nil), obs...)})
		if err != nil {
			return recs, err
		}
	}
	return recs, nil
}

// ---------------------------------------------------------------------
// Fetch stage
// ---------------------------------------------------------------------

// rspArgs and rtmpArgs are the address/operand lists of the call and
// ret expansions. Transients never rewrite Args (see transientOf), so
// every expansion shares these two slices instead of allocating its own.
var (
	rspArgs  = []isa.Operand{isa.R(mem.RSP)}
	rtmpArgs = []isa.Operand{isa.R(mem.RTMP)}
)

// fetch applies a fetch-family directive: it appends the transient
// form(s) of the instruction at the fetch head to the buffer, journals
// σ for call and ret, and moves the fetch head. On a stall nothing
// changes.
func (s *State[V, R, M]) fetch(d Directive) error {
	in, pc := s.Instr(), s.PC
	if in == nil {
		return stall(d, "nothing to fetch at halt point %d", pc)
	}
	switch in.Kind {
	case isa.KOp, isa.KLoad, isa.KStore, isa.KFence:
		// simple-fetch
		if d.Kind != DFetch {
			return stall(d, "%s requires a plain fetch", in.Kind)
		}
		t := transientOf[V](in)
		// A store whose data operand is an immediate arrives with the
		// value pre-resolved: "either step may be skipped if data or
		// address are already in immediate form".
		if t.Kind == TStore && !in.Src.IsReg {
			t.ValKnown = true
			t.SVal = s.dom.Lift(in.Src.Imm)
		}
		t.PP = pc
		s.Buf.AppendT(t)
		s.PC = in.Next

	case isa.KBr:
		// cond-fetch: the directive's guess selects the speculative arm
		// and is recorded as n0 in the transient branch.
		if d.Kind != DFetchGuess {
			return stall(d, "br requires fetch: true/false")
		}
		guess := in.False
		if d.Taken {
			guess = in.True
		}
		s.Buf.AppendT(TransientOf[V]{
			Kind: TBr, Op: in.Op, Args: in.Args,
			Guess: guess, True: in.True, False: in.False,
			PP: pc,
		})
		s.PC = guess

	case isa.KJmpi:
		// jmpi-fetch: the attacker supplies the predicted target n′.
		if d.Kind != DFetchTarget {
			return stall(d, "jmpi requires fetch: n")
		}
		s.Buf.AppendT(TransientOf[V]{Kind: TJmpi, Args: in.Args, Guess: d.Target, PP: pc})
		s.PC = d.Target

	case isa.KCall:
		// call-direct-fetch: unpack into call marker, stack-pointer
		// bump, and return-address store; push the return point onto σ.
		if d.Kind != DFetch {
			return stall(d, "call requires a plain fetch")
		}
		ret := mem.Pub(in.RetPt)
		i := s.Buf.AppendT(TransientOf[V]{Kind: TCall, PP: pc})
		s.Buf.AppendT(TransientOf[V]{Kind: TOp, Dst: mem.RSP, Op: isa.OpSucc, Args: rspArgs, PP: pc})
		s.Buf.AppendT(TransientOf[V]{
			Kind: TStore, Src: isa.Imm(ret),
			ValKnown: true, SVal: s.dom.Lift(ret),
			Args: rspArgs,
			PP:   pc,
		})
		s.RSB.Push(i, in.RetPt)
		s.PC = in.Callee

	case isa.KRet:
		// ret-fetch-rsb / ret-fetch-rsb-empty: unpack into ret marker,
		// return-address load, stack-pointer pop, and indirect jump
		// predicted to top(σ) — or to the attacker's choice when σ is
		// empty (policy-dependent).
		target, haveTop := s.RSB.Top()
		switch {
		case haveTop:
			if d.Kind != DFetch {
				return stall(d, "ret with non-empty RSB requires a plain fetch")
			}
		case s.RSB.Policy() == RSBRefuse:
			return stall(d, "ret with empty RSB: processor refuses to speculate")
		default: // RSBAttackerChoice with empty RSB
			if d.Kind != DFetchTarget {
				return stall(d, "ret with empty RSB requires fetch: n")
			}
			target = d.Target
		}
		i := s.Buf.AppendT(TransientOf[V]{Kind: TRet, PP: pc})
		s.Buf.AppendT(TransientOf[V]{Kind: TLoad, Dst: mem.RTMP, Args: rspArgs, PP: pc})
		s.Buf.AppendT(TransientOf[V]{Kind: TOp, Dst: mem.RSP, Op: isa.OpPred, Args: rspArgs, PP: pc})
		s.Buf.AppendT(TransientOf[V]{Kind: TJmpi, Args: rtmpArgs, Guess: target, PP: pc})
		s.RSB.Pop(i)
		s.PC = target

	default:
		return stall(d, "unfetchable instruction kind %v", in.Kind)
	}
	return nil
}

// ---------------------------------------------------------------------
// Execute stage
// ---------------------------------------------------------------------

// execute applies execute i to an operation, branch, indirect jump or
// load, once its operands resolve.
func (s *State[V, R, M]) execute(d Directive) ([]Observation, error) {
	t, ok := s.Buf.Get(d.I)
	if !ok {
		return nil, stall(d, "index %d not in buffer [%d,%d]", d.I, s.Buf.Min(), s.Buf.Max())
	}
	if s.Buf.FenceBefore(d.I) {
		return nil, stall(d, "fence pending before index %d", d.I)
	}
	switch t.Kind {
	case TOp, TBr, TJmpi, TLoad:
	default:
		return nil, stall(d, "index %d (%s) has no execute rule", d.I, t)
	}
	args, ok := s.ResolveOperands(d.I, t.Args)
	if !ok {
		return nil, stall(d, "operands of index %d unresolved", d.I)
	}
	switch t.Kind {
	case TOp:
		v, err := s.dom.Eval(t.Op, args)
		if err != nil {
			return nil, failed(d, "eval", err)
		}
		s.Buf.SetT(d.I, TransientOf[V]{Kind: TValue, Dst: t.Dst, Val: v})
		return nil, nil
	case TBr:
		cond, err := s.dom.Eval(t.Op, args)
		if err != nil {
			return nil, failed(d, "eval", err)
		}
		taken, l, ok := s.dom.Cond(cond)
		if !ok {
			return nil, ErrSplit
		}
		return s.Branch(d.I, taken, l), nil
	case TJmpi:
		target, err := s.dom.Addr(d.I, TJmpi, args)
		if err != nil {
			return nil, failed(d, "addr", err)
		}
		return s.settle(d.I, target.W, target.L), nil
	}
	addr, err := s.dom.Addr(d.I, TLoad, args)
	if err != nil {
		return nil, failed(d, "addr", err)
	}
	if t.PredFwd {
		return s.executePredictedLoad(d, t, addr)
	}
	// Most recent prior store with a resolved matching address, if any.
	// Stores with unresolved addresses are skipped — which is exactly
	// what makes Spectre v4 expressible.
	for j := d.I - 1; j >= s.Buf.Min(); j-- {
		st, _ := s.Buf.Get(j)
		if !st.IsResolvedStoreTo(addr.W) {
			continue
		}
		if !st.ValKnown {
			// load-execute-forward needs the store's data; no rule
			// applies until the value resolves.
			return nil, stall(d, "matching store at %d has unresolved data", j)
		}
		// load-execute-forward
		s.dom.Commit()
		s.Buf.SetT(d.I, TransientOf[V]{
			Kind: TValue, Dst: t.Dst, Val: st.SVal,
			FromLoad: true, Dep: j, DataAddr: addr.W, PP: t.PP,
		})
		return s.obs1(FwdObs(addr.W, addr.L)), nil
	}
	// load-execute-nodep
	v := s.dom.Load(addr.W)
	s.dom.Commit()
	s.Buf.SetT(d.I, TransientOf[V]{
		Kind: TValue, Dst: t.Dst, Val: v,
		FromLoad: true, Dep: NoDep, DataAddr: addr.W, PP: t.PP,
	})
	return s.obs1(ReadObs(addr.W, addr.L)), nil
}

// Branch settles the conditional branch at buffer index i on the arm
// the condition took, with the condition's label l, and returns the
// step's observations. The execute rule calls it for a condition that
// is one world; a domain that splits a machine settles each world with
// it.
func (s *State[V, R, M]) Branch(i int, taken bool, l mem.Label) []Observation {
	t, _ := s.Buf.Get(i)
	actual := t.False
	if taken {
		actual = t.True
	}
	return s.settle(i, actual, l)
}

// settle resolves the branch or indirect jump at index i to actual.
func (s *State[V, R, M]) settle(i int, actual isa.Addr, l mem.Label) []Observation {
	t, _ := s.Buf.Get(i)
	if actual == t.Guess {
		// cond-execute-correct, jmpi-execute-correct
		s.Buf.SetT(i, TransientOf[V]{Kind: TJump, Target: actual})
		return s.obs1(JumpObs(actual, l))
	}
	// cond-execute-incorrect, jmpi-execute-incorrect: discard everything
	// from i on, reinstall the resolved jump at i, redirect the PC, roll
	// back σ.
	s.Buf.TruncateFrom(i)
	s.RSB.Rollback(i)
	s.Buf.AppendT(TransientOf[V]{Kind: TJump, Target: actual})
	s.PC = actual
	return s.obs2(RollbackObs(), JumpObs(actual, l))
}

// executePredictedLoad resolves a partially resolved load
// (r = load(r⃗v, (vℓ, j)))n at address addr — the §3.5
// aliasing-prediction extension.
func (s *State[V, R, M]) executePredictedLoad(d Directive, t *TransientOf[V], addr mem.Value) ([]Observation, error) {
	j := t.PredFrom
	if st, inBuf := s.Buf.Get(j); inBuf {
		// Originating store still in the reorder buffer.
		s.dom.Commit()
		mismatch := st.AddrKnown && st.SAddr.W != addr.W
		intervening := false
		for k := j + 1; k < d.I; k++ {
			if s2, ok := s.Buf.Get(k); ok && s2.IsResolvedStoreTo(addr.W) {
				intervening = true
				break
			}
		}
		if !mismatch && !intervening {
			// load-execute-addr-ok
			s.Buf.SetT(d.I, TransientOf[V]{
				Kind: TValue, Dst: t.Dst, Val: st.SVal,
				FromLoad: true, Dep: j, DataAddr: addr.W, PP: t.PP,
			})
			return s.obs1(FwdObs(addr.W, addr.L)), nil
		}
		// load-execute-addr-hazard: discard the load and everything
		// after it; restart at the load's own program point.
		s.rollback(d.I, t.PP)
		return s.obs2(RollbackObs(), FwdObs(addr.W, addr.L)), nil
	}
	// Originating store already retired: validate against memory,
	// provided no other buffered store resolves to this address.
	for k := s.Buf.Min(); k < d.I; k++ {
		if s2, ok := s.Buf.Get(k); ok && s2.IsResolvedStoreTo(addr.W) {
			return nil, stall(d, "prior store at %d to %#x must resolve first", k, addr.W)
		}
	}
	v := s.dom.Load(addr.W)
	s.dom.Commit()
	if v == t.PredVal {
		// load-execute-addr-mem-match
		s.Buf.SetT(d.I, TransientOf[V]{
			Kind: TValue, Dst: t.Dst, Val: v,
			FromLoad: true, Dep: NoDep, DataAddr: addr.W, PP: t.PP,
		})
		return s.obs1(ReadObs(addr.W, addr.L)), nil
	}
	// load-execute-addr-mem-hazard
	s.rollback(d.I, t.PP)
	return s.obs2(RollbackObs(), ReadObs(addr.W, addr.L)), nil
}

// rollback discards the buffer from index i on, rolls σ back with it,
// and restarts fetch at pp.
func (s *State[V, R, M]) rollback(i int, pp isa.Addr) {
	s.Buf.TruncateFrom(i)
	s.RSB.Rollback(i)
	s.PC = pp
}

func (s *State[V, R, M]) executeValue(d Directive) ([]Observation, error) {
	t, ok := s.Buf.Get(d.I)
	if !ok || t.Kind != TStore {
		return nil, stall(d, "execute:value needs a store at %d", d.I)
	}
	if s.Buf.FenceBefore(d.I) {
		return nil, stall(d, "fence pending before index %d", d.I)
	}
	if t.ValKnown {
		return nil, stall(d, "store value already resolved")
	}
	v, ok := s.ResolveOperand(d.I, t.Src)
	if !ok {
		return nil, stall(d, "store data operand unresolved")
	}
	// store-execute-value
	t, _ = s.Buf.Edit(d.I)
	t.ValKnown = true
	t.SVal = v
	return nil, nil
}

func (s *State[V, R, M]) executeAddr(d Directive) ([]Observation, error) {
	t, ok := s.Buf.Get(d.I)
	if !ok || t.Kind != TStore {
		return nil, stall(d, "execute:addr needs a store at %d", d.I)
	}
	if s.Buf.FenceBefore(d.I) {
		return nil, stall(d, "fence pending before index %d", d.I)
	}
	if t.AddrKnown {
		return nil, stall(d, "store address already resolved")
	}
	args, ok := s.ResolveOperands(d.I, t.Args)
	if !ok {
		return nil, stall(d, "store address operands unresolved")
	}
	addr, err := s.dom.Addr(d.I, TStore, args)
	if err != nil {
		return nil, failed(d, "addr", err)
	}
	s.dom.Commit()
	// Forwarding-correctness check over all later resolved loads
	// (r = vℓ{jk, ak}): a hazard is the earliest k > i with
	// (ak = a ∧ jk < i) ∨ (jk = i ∧ ak ≠ a), where ⊥ < n for all n.
	hazardAt, restart := 0, isa.Addr(0)
	for k := d.I + 1; k <= s.Buf.Max(); k++ {
		lv, _ := s.Buf.Get(k)
		if lv.Kind != TValue || !lv.FromLoad {
			continue
		}
		staleRead := lv.DataAddr == addr.W && lv.Dep < d.I
		wrongFwd := lv.Dep == d.I && lv.DataAddr != addr.W
		if staleRead || wrongFwd {
			hazardAt, restart = k, lv.PP
			break
		}
	}
	t, _ = s.Buf.Edit(d.I)
	t.AddrKnown = true
	t.SAddr = addr
	if hazardAt == 0 {
		// store-execute-addr-ok
		return s.obs1(FwdObs(addr.W, addr.L)), nil
	}
	// store-execute-addr-hazard: restart at the stale load's program
	// point, discarding it and everything younger.
	s.rollback(hazardAt, restart)
	return s.obs2(RollbackObs(), FwdObs(addr.W, addr.L)), nil
}

func (s *State[V, R, M]) executeFwd(d Directive) ([]Observation, error) {
	t, ok := s.Buf.Get(d.I)
	if !ok || t.Kind != TLoad {
		return nil, stall(d, "execute:fwd needs an unresolved load at %d", d.I)
	}
	if t.PredFwd {
		return nil, stall(d, "load already carries a predicted forward")
	}
	if s.Buf.FenceBefore(d.I) {
		return nil, stall(d, "fence pending before index %d", d.I)
	}
	if d.From >= d.I {
		return nil, stall(d, "forwarding store %d must be older than load %d", d.From, d.I)
	}
	st, ok := s.Buf.Get(d.From)
	if !ok || st.Kind != TStore || !st.ValKnown {
		return nil, stall(d, "index %d is not a value-resolved store", d.From)
	}
	// load-execute-forwarded-guessed
	t, _ = s.Buf.Edit(d.I)
	t.PredFwd = true
	t.PredVal = st.SVal
	t.PredFrom = d.From
	return nil, nil
}

// ---------------------------------------------------------------------
// Retire stage
// ---------------------------------------------------------------------

// retire applies a retire directive to the buffer head, committing to
// the register file and data memory. A retiring store or call
// expansion observes its write.
func (s *State[V, R, M]) retire(d Directive) ([]Observation, error) {
	i := s.Buf.Min()
	t, ok := s.Buf.Get(i)
	if !ok {
		return nil, stall(d, "empty reorder buffer")
	}
	var obs []Observation
	switch t.Kind {
	case TValue:
		// value-retire (covers resolved ops and resolved loads)
		s.Regs.Write(t.Dst, t.Val)
		s.Buf.PopMinN(1)

	case TJump, TFence:
		// jump-retire, fence-retire
		s.Buf.PopMinN(1)

	case TStore:
		// store-retire
		if !t.ValKnown || !t.AddrKnown {
			return nil, stall(d, "store not fully resolved: %s", t)
		}
		s.Mem.Write(t.SAddr.W, t.SVal)
		obs = s.obs1(WriteObs(t.SAddr.W, t.SAddr.L))
		s.Buf.PopMinN(1)

	case TCall:
		// call-retire: the whole expansion retires at once.
		rsp, ok1 := s.Buf.Get(i + 1)
		st, ok2 := s.Buf.Get(i + 2)
		if !ok1 || !ok2 || rsp.Kind != TValue || st.Kind != TStore || !st.ValKnown || !st.AddrKnown {
			return nil, stall(d, "call expansion not fully resolved")
		}
		s.Regs.Write(mem.RSP, rsp.Val)
		s.Mem.Write(st.SAddr.W, st.SVal)
		obs = s.obs1(WriteObs(st.SAddr.W, st.SAddr.L))
		s.Buf.PopMinN(3)

	case TRet:
		// ret-retire: commits the popped stack pointer; rtmp is
		// scratch and is deliberately not committed (Appendix A).
		tmp, ok1 := s.Buf.Get(i + 1)
		rsp, ok2 := s.Buf.Get(i + 2)
		jmp, ok3 := s.Buf.Get(i + 3)
		if !ok1 || !ok2 || !ok3 ||
			tmp.Kind != TValue || rsp.Kind != TValue || jmp.Kind != TJump {
			return nil, stall(d, "ret expansion not fully resolved")
		}
		s.Regs.Write(mem.RSP, rsp.Val)
		s.Buf.PopMinN(4)

	default:
		return nil, stall(d, "index %d (%s) has no retire rule", i, t)
	}
	s.Retired++
	return obs, nil
}
