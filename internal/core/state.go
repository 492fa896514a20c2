package core

import (
	"errors"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

// Domain is a value domain's share of the semantics: the few operations
// the Table 1 rules apply to values. The rules themselves — fetch,
// execute with its hazard checks and the §3.5 predicted loads, retire —
// are written once, over State, and never look inside a value; the
// concrete Machine instantiates them at labeled words and the symbolic
// machine of internal/pitchfork at expressions.
//
// A Domain reports a directive that does not apply with an error
// wrapping ErrStall; any other error is a machine fault.
type Domain[V comparable] interface {
	// Lift carries an immediate into the domain.
	Lift(mem.Value) V
	// Reg reads ρ(r), with the domain's default for a register never
	// written.
	Reg(isa.Reg) V
	// Eval applies an operator to resolved operands.
	Eval(isa.Opcode, []V) (V, error)
	// Addr forms the address of the transient of kind k (TLoad, TStore
	// or TJmpi) at buffer index i from its resolved operands, pins it to
	// one word, and returns that word with the address's label. Pinning
	// may assume a path constraint, which stays pending until Commit.
	Addr(i int, k TKind, args []V) (mem.Value, error)
	// Commit records the path constraint of the address Addr last
	// pinned. The rules call it only once the step can no longer stall,
	// so a stalled step leaves the machine unchanged.
	Commit()
	// Load reads µ(a).
	Load(a mem.Word) V
	// Cond decides a branch condition: whether it is nonzero, and its
	// label. ok is false when the condition is not one concrete world;
	// the step then fails with ErrSplit and the domain splits the
	// machine itself.
	Cond(V) (taken bool, l mem.Label, ok bool)
}

// ErrSplit is returned by Step when a branch condition is not one
// concrete world (Domain.Cond). The machine is unchanged; the domain
// forks it into the feasible worlds and settles each with Branch.
var ErrSplit = errors.New("core: branch condition spans several worlds")

// Cells is a domain's register file (K = isa.Reg) or data memory
// (K = mem.Word): the retire stage writes it, CloneTo forks it into
// storage the embedding machine allocates with itself, and HashSum is
// its incrementally kept share of the fingerprint.
type Cells[K, V, S any] interface {
	Write(K, V)
	CloneTo(dst S)
	HashSum() uint64
}

// State is a configuration C = (ρ, µ, n, buf), extended with the return
// stack buffer σ of Appendix A, over the value domain V: the part of a
// machine the semantics is written over. Both machines embed it; its
// methods are the fetch, execute and retire rules and the shape the
// exploration engine reads (see Explorable), written once for both
// domains.
type State[V comparable, R Cells[isa.Reg, V, R], M Cells[mem.Word, V, M]] struct {
	Regs    R                                        // ρ
	Mem     M                                        // µ (data half)
	PC      isa.Addr                                 // n
	Buf     *Buffer[TransientOf[V], *TransientOf[V]] // buf
	RSB     *RSB                                     // σ
	Retired int                                      // N: retired-instruction count (retire directives)

	// code is the snapshot of the program's instructions the fetch
	// stage reads, shared by every clone; dom is the embedding machine.
	code *isa.Table
	dom  Domain[V]

	// buf and rsb hold a clone's Buf and RSB (see CloneInto).
	buf Buffer[TransientOf[V], *TransientOf[V]]
	rsb RSB

	// Per-step scratch, not part of the configuration: resolved
	// operands, and the observations and single successor a step
	// returns (valid until the next step on this machine).
	args [4]V
	obs  [2]Observation
	succ [1]Successor
}

// NewState returns the initial configuration at pc over registers regs
// and data memory data, with an empty buffer and an empty RSB, for the
// machine dom that embeds it.
func NewState[V comparable, R Cells[isa.Reg, V, R], M Cells[mem.Word, V, M]](code *isa.Table, regs R, data M, pc isa.Addr, dom Domain[V]) State[V, R, M] {
	return State[V, R, M]{
		Regs: regs, Mem: data, PC: pc,
		Buf: NewBuffer[TransientOf[V]](), RSB: NewRSB(RSBAttackerChoice),
		code: code, dom: dom,
	}
}

// CloneInto forks the configuration into c, for the machine dom that
// embeds c; regs and data are dom's storage for c's register file and
// memory. Every part is copy-on-write and lives in dom's allocation,
// so the fork is O(1); c must not be copied, as Buf and RSB point in.
func (s *State[V, R, M]) CloneInto(c *State[V, R, M], dom Domain[V], regs R, data M) {
	s.Regs.CloneTo(regs)
	s.Mem.CloneTo(data)
	s.Buf.CloneTo(&c.buf)
	s.RSB.CloneTo(&c.rsb)
	c.Regs, c.Mem, c.PC = regs, data, s.PC
	c.Buf, c.RSB, c.Retired = &c.buf, &c.rsb, s.Retired
	c.code, c.dom = s.code, dom
}

// Instr returns the instruction at the fetch head, or nil at a halt
// point. It points into the program snapshot the machine shares with
// its clones and must not be modified.
func (s *State[V, R, M]) Instr() *isa.Instr { return s.code.At(s.PC) }

// RetiredCount returns the number of retired instructions.
func (s *State[V, R, M]) RetiredCount() int { return s.Retired }

// BufLen, BufMin and BufMax describe the reorder buffer's index range.
func (s *State[V, R, M]) BufLen() int { return s.Buf.Len() }

func (s *State[V, R, M]) BufMin() int { return s.Buf.Min() }

func (s *State[V, R, M]) BufMax() int { return s.Buf.Max() }

// Branches lists the pending branches' buffer indices, ascending.
func (s *State[V, R, M]) Branches() []int { return s.Buf.Branches() }

// RSBTop reports top(σ), the return-stack prediction, if present.
func (s *State[V, R, M]) RSBTop() (isa.Addr, bool) { return s.RSB.Top() }

// PeekJmpi resolves the target of the indirect jump in about to be
// fetched, if its operands resolve and the domain pins it without
// assuming anything (a symbolic target does not resolve).
func (s *State[V, R, M]) PeekJmpi(in *isa.Instr) (isa.Addr, bool) {
	i := s.Buf.Max() + 1
	args, ok := s.ResolveOperands(i, in.Args)
	if !ok {
		return 0, false
	}
	a, err := s.dom.Addr(i, TJmpi, args)
	return a.W, err == nil
}

// PeekRet resolves the return target through the in-memory return
// address, for a ret fetched under an empty RSB: the stack pointer and
// the word it points at must both be jump targets the domain pins
// without assuming anything.
func (s *State[V, R, M]) PeekRet() (isa.Addr, bool) {
	i := s.Buf.Max() + 1
	sp, ok := s.ResolveReg(i, mem.RSP)
	if !ok {
		return 0, false
	}
	s.args[0] = sp
	a, err := s.dom.Addr(i, TJmpi, s.args[:1])
	if err != nil {
		return 0, false
	}
	s.args[0] = s.dom.Load(a.W)
	a, err = s.dom.Addr(i, TJmpi, s.args[:1])
	return a.W, err == nil
}

// Self returns m, the machine embedding s, as the single successor of
// d with observations obs, in the machine's scratch (valid until its
// next step).
func (s *State[V, R, M]) Self(m Explorable, d Directive, obs []Observation) []Successor {
	s.succ[0] = Successor{M: m, D: d, Obs: obs}
	return s.succ[:]
}

// obs1 and obs2 return a step's observations in the machine's scratch
// buffer — valid until the next Step call (Run and the exploration
// engine consume them immediately; RunRecorded copies).
func (s *State[V, R, M]) obs1(a Observation) []Observation {
	s.obs[0] = a
	return s.obs[:1]
}

func (s *State[V, R, M]) obs2(a, b Observation) []Observation {
	s.obs[0], s.obs[1] = a, b
	return s.obs[:2]
}

// ---------------------------------------------------------------------
// Register resolution over the reorder buffer
// ---------------------------------------------------------------------

// ResolveReg implements the register resolve function (buf +i ρ)(r) of
// Fig. 3, extended per §3.5 to read through partially resolved loads:
//
//   - the latest assignment to r at an index j < i that is resolved
//     yields its value;
//   - a latest assignment that is unresolved yields ⊥ (ok == false);
//   - no assignment at all defers to ρ(r).
func (s *State[V, R, M]) ResolveReg(i int, r isa.Reg) (v V, ok bool) {
	for j := min(i-1, s.Buf.Max()); j >= s.Buf.Min(); j-- {
		t, _ := s.Buf.Get(j)
		if !t.AssignsReg(r) {
			continue
		}
		switch t.Kind {
		case TValue:
			return t.Val, true
		case TLoad:
			if t.PredFwd {
				return t.PredVal, true // §3.5 extension
			}
		}
		return v, false // pending assignment: ⊥
	}
	return s.dom.Reg(r), true
}

// ResolveOperand lifts ResolveReg to a register-or-value operand:
// (buf +i ρ)(vℓ) = vℓ for immediates.
func (s *State[V, R, M]) ResolveOperand(i int, o isa.Operand) (V, bool) {
	if !o.IsReg {
		return s.dom.Lift(o.Imm), true
	}
	return s.ResolveReg(i, o.Reg)
}

// ResolveOperands is the pointwise lifting to operand lists; it fails
// if any operand is ⊥. The result lives in the machine's scratch and is
// valid until the next call, so per-step operand resolution allocates
// nothing; a domain whose values may keep the slice copies it first.
func (s *State[V, R, M]) ResolveOperands(i int, os []isa.Operand) ([]V, bool) {
	out := s.args[:0]
	for _, o := range os {
		v, ok := s.ResolveOperand(i, o)
		if !ok {
			return nil, false
		}
		out = append(out, v)
	}
	return out, true
}
