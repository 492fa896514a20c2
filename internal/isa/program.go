package isa

import (
	"fmt"
	"sort"

	"pitchfork/internal/mem"
)

// Program is the instruction half of the paper's memory µ: a partial
// map from program points to physical instructions, together with the
// entry point, symbolic names, and the initial data image. Program
// points not in the map are halt points — fetching at them stops the
// machine, which is how programs terminate.
type Program struct {
	Instrs  map[Addr]Instr
	Entry   Addr
	Symbols map[string]Addr // label → program point or data address
	Data    map[Addr]mem.Value
}

// NewProgram returns an empty program with the given entry point.
func NewProgram(entry Addr) *Program {
	return &Program{
		Instrs:  make(map[Addr]Instr),
		Entry:   entry,
		Symbols: make(map[string]Addr),
		Data:    make(map[Addr]mem.Value),
	}
}

// Add places an instruction at program point n, overwriting any
// previous instruction there.
func (p *Program) Add(n Addr, in Instr) *Program {
	p.Instrs[n] = in
	return p
}

// At returns the instruction at n, if any.
func (p *Program) At(n Addr) (Instr, bool) {
	in, ok := p.Instrs[n]
	return in, ok
}

// Table is an immutable snapshot of a program's instructions, sorted
// by program point, for the machines' per-state fetch lookups: At is a
// binary search that hands out a pointer into the snapshot, so a fetch
// neither hashes nor copies the instruction. Any address layout, dense
// or sparse, uses the same representation. Machines build one table
// when they are created and share it with every clone, which is sound
// because a program is not mutated while it executes.
type Table struct {
	points []Addr
	instrs []Instr
}

// Table snapshots the program's current instructions.
func (p *Program) Table() *Table {
	points := p.Points()
	instrs := make([]Instr, len(points))
	for k, n := range points {
		instrs[k] = p.Instrs[n]
	}
	return &Table{points: points, instrs: instrs}
}

// At returns the instruction at n, or nil for a halt point. The
// instruction is shared with every other user of the table and must
// not be modified.
func (t *Table) At(n Addr) *Instr {
	lo, hi := 0, len(t.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.points[mid] < n {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(t.points) && t.points[lo] == n {
		return &t.instrs[lo]
	}
	return nil
}

// SetData seeds the initial data image at address a.
func (p *Program) SetData(a Addr, v mem.Value) *Program {
	p.Data[a] = v
	return p
}

// SetRegion seeds consecutive words starting at base.
func (p *Program) SetRegion(base Addr, vs []mem.Value) *Program {
	for i, v := range vs {
		p.Data[base+Addr(i)] = v
	}
	return p
}

// Define binds a symbolic name.
func (p *Program) Define(name string, a Addr) *Program {
	p.Symbols[name] = a
	return p
}

// Lookup resolves a symbolic name.
func (p *Program) Lookup(name string) (Addr, bool) {
	a, ok := p.Symbols[name]
	return a, ok
}

// InitialMemory builds a fresh labeled memory from the data image.
func (p *Program) InitialMemory() *mem.Memory {
	m := mem.NewMemory()
	for a, v := range p.Data {
		m.Write(a, v)
	}
	return m
}

// Points returns the populated program points in increasing order.
func (p *Program) Points() []Addr {
	out := make([]Addr, 0, len(p.Instrs))
	for n := range p.Instrs {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Instrs) }

// Validate checks static well-formedness: the entry point exists (or
// the program is empty), every intra-program successor of a
// non-control-flow instruction is either an instruction or a halt
// point that no other instruction jumps over, opcode arities match, and
// branch targets that are meant to be instructions exist. Dangling
// Next/True/False addresses are permitted only if they are halt points
// (absent from the map) — that is always legal; what Validate rejects is
// structural nonsense such as a br with a non-boolean arity mismatch.
func (p *Program) Validate() error {
	if len(p.Instrs) == 0 {
		return nil
	}
	if _, ok := p.Instrs[p.Entry]; !ok {
		return fmt.Errorf("isa: entry point %d has no instruction", p.Entry)
	}
	for n, in := range p.Instrs {
		switch in.Kind {
		case KOp:
			if a := in.Op.Arity(); a >= 0 && len(in.Args) != a {
				return fmt.Errorf("isa: %d: %s expects %d operands, got %d", n, in.Op, a, len(in.Args))
			}
			if a := in.Op.Arity(); a < 0 && len(in.Args) == 0 {
				return fmt.Errorf("isa: %d: %s expects at least one operand", n, in.Op)
			}
		case KBr:
			if a := in.Op.Arity(); a >= 0 && len(in.Args) != a {
				return fmt.Errorf("isa: %d: br %s expects %d operands, got %d", n, in.Op, a, len(in.Args))
			}
		case KLoad, KStore, KJmpi:
			if len(in.Args) == 0 {
				return fmt.Errorf("isa: %d: %s needs address operands", n, in.Kind)
			}
		case KCall, KRet, KFence:
			// No operand constraints.
		default:
			return fmt.Errorf("isa: %d: invalid kind %d", n, uint8(in.Kind))
		}
	}
	return nil
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	c := NewProgram(p.Entry)
	for n, in := range p.Instrs {
		args := make([]Operand, len(in.Args))
		copy(args, in.Args)
		in.Args = args
		c.Instrs[n] = in
	}
	for k, v := range p.Symbols {
		c.Symbols[k] = v
	}
	for a, v := range p.Data {
		c.Data[a] = v
	}
	return c
}

// Builder provides sequential program construction: instructions are
// appended at consecutive program points starting at the entry, with
// Next fields filled in automatically, matching how the figures number
// their programs 1, 2, 3, ….
type Builder struct {
	prog *Program
	next Addr
}

// NewBuilder starts a builder whose first instruction lands on entry.
func NewBuilder(entry Addr) *Builder {
	return &Builder{prog: NewProgram(entry), next: entry}
}

// Here returns the program point the next appended instruction will
// occupy; useful for computing branch targets.
func (b *Builder) Here() Addr { return b.next }

// Skip reserves count program points (leaving them as halt points
// unless later filled with Place).
func (b *Builder) Skip(count Addr) *Builder {
	b.next += count
	return b
}

// Op appends (dst = op(...)) falling through to the next point.
func (b *Builder) Op(dst Reg, op Opcode, args ...Operand) *Builder {
	b.prog.Add(b.next, Op(dst, op, args, b.next+1))
	b.next++
	return b
}

// Load appends (dst = load(args)) falling through.
func (b *Builder) Load(dst Reg, args ...Operand) *Builder {
	b.prog.Add(b.next, Load(dst, args, b.next+1))
	b.next++
	return b
}

// Store appends store(src, args) falling through.
func (b *Builder) Store(src Operand, args ...Operand) *Builder {
	b.prog.Add(b.next, Store(src, args, b.next+1))
	b.next++
	return b
}

// Br appends br(op, args, ntrue, nfalse).
func (b *Builder) Br(op Opcode, args []Operand, ntrue, nfalse Addr) *Builder {
	b.prog.Add(b.next, Br(op, args, ntrue, nfalse))
	b.next++
	return b
}

// Jmpi appends jmpi(args).
func (b *Builder) Jmpi(args ...Operand) *Builder {
	b.prog.Add(b.next, Jmpi(args))
	b.next++
	return b
}

// Call appends call(callee, here+1).
func (b *Builder) Call(callee Addr) *Builder {
	b.prog.Add(b.next, Call(callee, b.next+1))
	b.next++
	return b
}

// Ret appends ret.
func (b *Builder) Ret() *Builder {
	b.prog.Add(b.next, Ret())
	b.next++
	return b
}

// Fence appends fence falling through.
func (b *Builder) Fence() *Builder {
	b.prog.Add(b.next, Fence(b.next+1))
	b.next++
	return b
}

// Place writes an explicit instruction at an explicit point without
// advancing the cursor.
func (b *Builder) Place(n Addr, in Instr) *Builder {
	b.prog.Add(n, in)
	return b
}

// Data seeds a data word.
func (b *Builder) Data(a Addr, v mem.Value) *Builder {
	b.prog.SetData(a, v)
	return b
}

// Region seeds consecutive data words.
func (b *Builder) Region(base Addr, vs ...mem.Value) *Builder {
	b.prog.SetRegion(base, vs)
	return b
}

// Define binds a symbol.
func (b *Builder) Define(name string, a Addr) *Builder {
	b.prog.Define(name, a)
	return b
}

// Build validates and returns the program.
func (b *Builder) Build() (*Program, error) {
	if err := b.prog.Validate(); err != nil {
		return nil, err
	}
	return b.prog, nil
}

// MustBuild is Build that panics on error; for tests and fixtures.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
