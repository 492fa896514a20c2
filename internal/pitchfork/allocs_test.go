package pitchfork

import (
	"testing"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
	"pitchfork/internal/symx"
)

// TestResolveArgsAllocFree pins the scratch-buffer optimization:
// resolving a register operand list (core.State.ResolveOperands) must
// not allocate (operand resolution was the engine's hottest allocation
// site). Immediate operands box a fresh Const and are exempt; register
// reads out of the regfile must be free.
func TestResolveArgsAllocFree(t *testing.T) {
	b := isa.NewBuilder(1)
	b.Op(isa.Reg(0), isa.OpAdd, isa.R(isa.Reg(1)), isa.R(isa.Reg(2)))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	init := NewSym(p)
	init.SetReg(isa.Reg(1), symx.NewVar("a", mem.Public))
	init.SetReg(isa.Reg(2), symx.NewVar("b", mem.Public))
	s := newSymMachine(init, BoundWithHazards)

	args := []isa.Operand{
		isa.R(isa.Reg(1)), isa.R(isa.Reg(2)),
		isa.R(isa.Reg(1)), isa.R(isa.Reg(2)),
	}
	if _, ok := s.ResolveOperands(s.BufMin(), args); !ok {
		t.Fatal("warm-up resolve failed")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := s.ResolveOperands(s.BufMin(), args); !ok {
			t.Fatal("resolve failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("ResolveOperands allocates %.1f times per call; want 0 (scratch regression)", allocs)
	}
}

// TestResolveRegAllocFree pins register resolution (core.State's
// resolve function with the domain's Reg default), ResolveOperands'
// twin on the operand-resolution hot path: resolving a register must
// not allocate — neither through
// the speculative buffer, nor out of the register file, nor on the
// unset-register default (the canonical symx.Zero, not a fresh boxed
// Const per call).
func TestResolveRegAllocFree(t *testing.T) {
	b := isa.NewBuilder(1)
	b.Op(isa.Reg(0), isa.OpAdd, isa.R(isa.Reg(1)), isa.R(isa.Reg(2)))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	init := NewSym(p)
	init.SetReg(isa.Reg(1), symx.NewVar("a", mem.Public))
	s := newSymMachine(init, BoundWithHazards)

	for _, r := range []isa.Reg{isa.Reg(1), isa.Reg(9)} { // set and unset
		allocs := testing.AllocsPerRun(200, func() {
			if _, ok := s.ResolveOperand(s.BufMin(), isa.R(r)); !ok {
				t.Fatal("resolve failed")
			}
		})
		if allocs != 0 {
			t.Fatalf("resolving r%d allocates %.1f times per call; want 0", r, allocs)
		}
	}
	if e, ok := s.ResolveOperand(s.BufMin(), isa.R(isa.Reg(9))); !ok || e != symx.Zero {
		t.Fatal("unset register must resolve to the canonical zero expression")
	}
}

// TestApplyArgsCopiesRetainedScratch guards the other half of the
// scratch contract: when symx.Apply keeps the argument slice verbatim
// (the default unsimplified path), the domain's Eval must hand the
// expression a private copy, or the next ResolveOperands would rewrite
// a live expression's operands in place.
func TestApplyArgsCopiesRetainedScratch(t *testing.T) {
	b := isa.NewBuilder(1)
	b.Op(isa.Reg(0), isa.OpLt, isa.R(isa.Reg(1)), isa.R(isa.Reg(2)))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	init := NewSym(p)
	init.SetReg(isa.Reg(1), symx.NewVar("a", mem.Public))
	init.SetReg(isa.Reg(2), symx.NewVar("b", mem.Public))
	s := newSymMachine(init, BoundWithHazards)

	args, ok := s.ResolveOperands(s.BufMin(), []isa.Operand{isa.R(isa.Reg(1)), isa.R(isa.Reg(2))})
	if !ok {
		t.Fatal("resolve failed")
	}
	e, _ := s.Eval(isa.OpLt, args)
	o, ok := e.(symx.Op)
	if !ok {
		t.Fatalf("expected an unsimplified Op expression, got %T", e)
	}
	if len(o.Args) == len(args) && &o.Args[0] == &args[0] {
		t.Fatal("Eval returned an expression aliasing the scratch buffer")
	}
	before := o.Args[0]
	if _, ok := s.ResolveOperands(s.BufMin(), []isa.Operand{isa.R(isa.Reg(2)), isa.R(isa.Reg(1))}); !ok {
		t.Fatal("second resolve failed")
	}
	if o.Args[0] != before {
		t.Fatal("a later ResolveOperands mutated a retained expression's operands")
	}
}
