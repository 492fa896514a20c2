package spectre

import (
	"fmt"
	"strings"

	"pitchfork/internal/core"
	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
	"pitchfork/internal/pitchfork"
	"pitchfork/internal/symx"
)

// Word is a machine word: a data value or data address.
type Word = uint64

// Addr is a program point. The paper draws program points and data
// addresses from the same value domain.
type Addr = uint64

// Reg names a register of the abstract machine.
type Reg = mem.Reg

// Conventional registers of the call/return expansion: RSP is the
// stack pointer, RTMP the scratch register return addresses pass
// through.
const (
	RSP  = mem.RSP
	RTMP = mem.RTMP
)

// Opcode identifies an arithmetic or boolean operator of the abstract
// ISA. All operators are total: division and remainder by zero yield
// zero, shift counts are taken modulo 64.
type Opcode = isa.Opcode

// The operator set. Comparisons yield 0/1 words; OpSelect is the
// constant-time selection FaCT-style code relies on.
const (
	OpAdd    = isa.OpAdd
	OpSub    = isa.OpSub
	OpMul    = isa.OpMul
	OpDiv    = isa.OpDiv
	OpMod    = isa.OpMod
	OpAnd    = isa.OpAnd
	OpOr     = isa.OpOr
	OpXor    = isa.OpXor
	OpShl    = isa.OpShl
	OpShr    = isa.OpShr
	OpSar    = isa.OpSar
	OpNot    = isa.OpNot
	OpNeg    = isa.OpNeg
	OpMov    = isa.OpMov
	OpEq     = isa.OpEq
	OpNe     = isa.OpNe
	OpLt     = isa.OpLt
	OpLe     = isa.OpLe
	OpGt     = isa.OpGt
	OpGe     = isa.OpGe
	OpSlt    = isa.OpSlt
	OpSle    = isa.OpSle
	OpSgt    = isa.OpSgt
	OpSge    = isa.OpSge
	OpSelect = isa.OpSelect
)

// Operand is a register-or-immediate operand.
type Operand = isa.Operand

// R returns a register operand.
func R(r Reg) Operand { return isa.R(r) }

// Imm returns a public immediate operand.
func Imm(w Word) Operand { return isa.ImmW(w) }

// SecretImm returns a secret-labeled immediate operand.
func SecretImm(w Word) Operand { return isa.Imm(mem.Sec(w)) }

// Program is an analyzable unit: the instructions and data image, the
// initial register file, and (for symbolic analysis) the symbolic
// input bindings. Programs are built with ProgramBuilder or compiled
// from CTL source with CompileCTL.
type Program struct {
	prog    *isa.Program
	regs    map[mem.Reg]mem.Value
	symRegs map[mem.Reg]symx.Expr
	symMem  map[mem.Word]symx.Expr
	globals map[string]Word // CTL global variables → data addresses
	funcs   map[string]Addr // CTL functions → entry points
}

// Len returns the number of instructions.
func (p *Program) Len() int { return p.prog.Len() }

// Entry returns the entry program point.
func (p *Program) Entry() Addr { return p.prog.Entry }

// Lookup resolves a symbolic name: a name bound with
// ProgramBuilder.Define, a CTL global variable's data address, or a
// CTL function's entry point.
func (p *Program) Lookup(name string) (Addr, bool) {
	if a, ok := p.globals[name]; ok {
		return a, true
	}
	if a, ok := p.funcs[name]; ok {
		return a, true
	}
	return p.prog.Lookup(name)
}

// Globals returns the CTL global-variable data addresses (empty for
// builder-assembled programs).
func (p *Program) Globals() map[string]Word {
	out := make(map[string]Word, len(p.globals))
	for k, v := range p.globals {
		out[k] = v
	}
	return out
}

// Disassemble renders the program in the paper's instruction notation,
// one program point per line.
func (p *Program) Disassemble() string {
	var b strings.Builder
	for _, n := range p.prog.Points() {
		in, _ := p.prog.At(n)
		fmt.Fprintf(&b, "%4d: %s\n", n, in)
	}
	return b.String()
}

// machine builds a fresh concrete machine in the program's initial
// configuration.
func (p *Program) machine() *core.Machine {
	m := core.New(p.prog)
	for r, v := range p.regs {
		m.Regs.Write(r, v)
	}
	return m
}

// symMachine builds a fresh symbolic initial configuration: concrete
// register and memory seeds become constant expressions, symbolic
// bindings become solver variables.
func (p *Program) symMachine() *pitchfork.SymMachine {
	sm := pitchfork.NewSym(p.prog)
	for r, v := range p.regs {
		sm.SetReg(r, symx.C(v))
	}
	for r, e := range p.symRegs {
		sm.SetReg(r, e)
	}
	for a, e := range p.symMem {
		sm.SetMem(a, e)
	}
	return sm
}

// ProgramBuilder assembles a Program sequentially: instructions land
// on consecutive program points starting at the entry, with
// fall-through successors filled in automatically — matching how the
// paper's figures number their programs 1, 2, 3, …. All methods
// return the builder for chaining.
type ProgramBuilder struct {
	b       *isa.Builder
	regs    map[mem.Reg]mem.Value
	symRegs map[mem.Reg]symx.Expr
	symMem  map[mem.Word]symx.Expr
}

// NewProgramBuilder starts a builder whose first instruction lands on
// program point 1, like the figures.
func NewProgramBuilder() *ProgramBuilder { return NewProgramBuilderAt(1) }

// NewProgramBuilderAt starts a builder whose first instruction lands
// on entry.
func NewProgramBuilderAt(entry Addr) *ProgramBuilder {
	return &ProgramBuilder{
		b:       isa.NewBuilder(entry),
		regs:    make(map[mem.Reg]mem.Value),
		symRegs: make(map[mem.Reg]symx.Expr),
		symMem:  make(map[mem.Word]symx.Expr),
	}
}

// Here returns the program point the next appended instruction will
// occupy; useful for computing branch targets.
func (pb *ProgramBuilder) Here() Addr { return pb.b.Here() }

// Skip reserves count program points, leaving them as halt points.
func (pb *ProgramBuilder) Skip(count Addr) *ProgramBuilder {
	pb.b.Skip(count)
	return pb
}

// Op appends (dst = op(args…)) falling through to the next point.
func (pb *ProgramBuilder) Op(dst Reg, op Opcode, args ...Operand) *ProgramBuilder {
	pb.b.Op(dst, op, args...)
	return pb
}

// Load appends (dst = load(args…)); the address is the sum of the
// operands, so Load(r, Imm(0x40), R(x)) reads address 0x40+x.
func (pb *ProgramBuilder) Load(dst Reg, args ...Operand) *ProgramBuilder {
	pb.b.Load(dst, args...)
	return pb
}

// Store appends store(src, args…) with the summed address.
func (pb *ProgramBuilder) Store(src Operand, args ...Operand) *ProgramBuilder {
	pb.b.Store(src, args...)
	return pb
}

// Br appends br(op, args, ntrue, nfalse): if op over args is nonzero,
// control continues at ntrue, else at nfalse.
func (pb *ProgramBuilder) Br(op Opcode, args []Operand, ntrue, nfalse Addr) *ProgramBuilder {
	pb.b.Br(op, args, ntrue, nfalse)
	return pb
}

// Jmpi appends an indirect jump to the summed operand address.
func (pb *ProgramBuilder) Jmpi(args ...Operand) *ProgramBuilder {
	pb.b.Jmpi(args...)
	return pb
}

// Call appends call(callee) returning to the following point.
func (pb *ProgramBuilder) Call(callee Addr) *ProgramBuilder {
	pb.b.Call(callee)
	return pb
}

// Ret appends ret.
func (pb *ProgramBuilder) Ret() *ProgramBuilder {
	pb.b.Ret()
	return pb
}

// Fence appends a speculation fence falling through.
func (pb *ProgramBuilder) Fence() *ProgramBuilder {
	pb.b.Fence()
	return pb
}

// Define binds a symbolic name to a program point or data address.
func (pb *ProgramBuilder) Define(name string, a Addr) *ProgramBuilder {
	pb.b.Define(name, a)
	return pb
}

// Public seeds consecutive public data words starting at base.
func (pb *ProgramBuilder) Public(base Word, words ...Word) *ProgramBuilder {
	vs := make([]mem.Value, len(words))
	for i, w := range words {
		vs[i] = mem.Pub(w)
	}
	pb.b.Region(base, vs...)
	return pb
}

// Secret seeds consecutive secret-labeled data words starting at base
// — the data whose observation the analyzer flags.
func (pb *ProgramBuilder) Secret(base Word, words ...Word) *ProgramBuilder {
	vs := make([]mem.Value, len(words))
	for i, w := range words {
		vs[i] = mem.Sec(w)
	}
	pb.b.Region(base, vs...)
	return pb
}

// SetReg seeds the initial register file with a public word — e.g. an
// attacker-chosen input.
func (pb *ProgramBuilder) SetReg(r Reg, w Word) *ProgramBuilder {
	pb.regs[r] = mem.Pub(w)
	return pb
}

// SetSecretReg seeds the initial register file with a secret word.
func (pb *ProgramBuilder) SetSecretReg(r Reg, w Word) *ProgramBuilder {
	pb.regs[r] = mem.Sec(w)
	return pb
}

// SymbolicReg binds a register to an unconstrained public symbolic
// input (an attacker-controlled value) for symbolic analysis. The name
// identifies the variable in Finding.Witness.
func (pb *ProgramBuilder) SymbolicReg(r Reg, name string) *ProgramBuilder {
	pb.symRegs[r] = symx.NewVar(name, mem.Public)
	return pb
}

// SymbolicSecretReg binds a register to a symbolic secret.
func (pb *ProgramBuilder) SymbolicSecretReg(r Reg, name string) *ProgramBuilder {
	pb.symRegs[r] = symx.NewVar(name, mem.Secret)
	return pb
}

// SymbolicMem binds a memory cell to an unconstrained public symbolic
// input.
func (pb *ProgramBuilder) SymbolicMem(a Word, name string) *ProgramBuilder {
	pb.symMem[a] = symx.NewVar(name, mem.Public)
	return pb
}

// SymbolicSecretMem binds a memory cell to a symbolic secret.
func (pb *ProgramBuilder) SymbolicSecretMem(a Word, name string) *ProgramBuilder {
	pb.symMem[a] = symx.NewVar(name, mem.Secret)
	return pb
}

// Build validates the program and returns it. The returned Program is
// independent of the builder: later builder mutations do not affect
// it.
func (pb *ProgramBuilder) Build() (*Program, error) {
	prog, err := pb.b.Build()
	if err != nil {
		return nil, fmt.Errorf("spectre: %w", err)
	}
	regs := make(map[mem.Reg]mem.Value, len(pb.regs))
	for r, v := range pb.regs {
		regs[r] = v
	}
	symRegs := make(map[mem.Reg]symx.Expr, len(pb.symRegs))
	for r, e := range pb.symRegs {
		symRegs[r] = e
	}
	symMem := make(map[mem.Word]symx.Expr, len(pb.symMem))
	for a, e := range pb.symMem {
		symMem[a] = e
	}
	return &Program{
		prog:    prog.Clone(),
		regs:    regs,
		symRegs: symRegs,
		symMem:  symMem,
	}, nil
}

// MustBuild is Build that panics on a malformed program; for examples
// and fixtures.
func (pb *ProgramBuilder) MustBuild() *Program {
	p, err := pb.Build()
	if err != nil {
		panic(err)
	}
	return p
}
