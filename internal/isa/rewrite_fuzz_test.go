package isa_test

// Property test for the patch-plan rewriting layer: a plan of
// observation-free insertions (fences and scratch-register ops) applied
// to a random program must preserve the sequential observation trace
// modulo the address map — memory addresses and labels byte-identical,
// jump targets translated by Map.Target. Plans Apply refuses with a
// ComputedJumpError are exactly the ones the repair engine reports as
// OutcomeUnsafeRewrite, so they are skipped here (and pinned separately
// in the repair tests).

import (
	"errors"
	"testing"

	"pitchfork/internal/core"
	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

// genProgram decodes a small program from fuzz bytes: registers r0-r3,
// a public data region at 64..79, every control reference folded into
// the valid point range (dangling references become halt points, which
// Validate allows).
func genProgram(data []byte) (*isa.Program, []byte, bool) {
	if len(data) < 4 {
		return nil, nil, false
	}
	n := int(data[0]%8) + 2 // 2..9 instructions
	data = data[1:]
	if len(data) < 2*n {
		return nil, nil, false
	}
	b := isa.NewBuilder(1)
	for a := 64; a < 80; a++ {
		b.Data(isa.Addr(a), mem.Pub(mem.Word(a%5)))
	}
	reg := func(x byte) isa.Reg { return isa.Reg(x % 4) }
	point := func(x byte) isa.Addr { return isa.Addr(int(x)%(n+2)) + 1 }
	for i := 0; i < n; i++ {
		k, x := data[2*i], data[2*i+1]
		switch k % 7 {
		case 0:
			b.Op(reg(x), isa.OpAdd, isa.R(reg(x>>2)), isa.ImmW(mem.Word(x%16)))
		case 1:
			// Mask the index so every address stays inside the region.
			b.Op(reg(x), isa.OpAnd, isa.R(reg(x>>2)), isa.ImmW(7)).
				Skip(0)
		case 2:
			b.Load(reg(x), isa.ImmW(64), isa.R(reg(x>>2)))
		case 3:
			b.Store(isa.R(reg(x)), isa.ImmW(72), isa.R(reg(x>>2)))
		case 4:
			b.Br(isa.OpLt, []isa.Operand{isa.R(reg(x)), isa.ImmW(mem.Word(x >> 4))}, point(x), point(x>>3))
		case 5:
			b.Call(point(x))
		case 6:
			b.Ret()
		}
	}
	p, err := b.Build()
	if err != nil {
		return nil, nil, false
	}
	return p, data[2*n:], true
}

// genPlan decodes a patch plan of observation-free insertions: fences
// and adds targeting a scratch register the generated program never
// reads.
func genPlan(p *isa.Program, data []byte) isa.Plan {
	const scratch = isa.Reg(12)
	var pl isa.Plan
	max := int(p.Points()[len(p.Points())-1])
	for i := 0; i+1 < len(data) && i < 8; i += 2 {
		at := isa.Addr(int(data[i])%(max+1)) + 1
		var in isa.Instr
		if data[i+1]%2 == 0 {
			in = isa.Fence(at)
		} else {
			in = isa.Op(scratch, isa.OpAdd, []isa.Operand{isa.ImmW(mem.Word(data[i+1]))}, at)
		}
		pl.Add(isa.Patch{At: at, Insert: []isa.Instr{in}})
	}
	return pl
}

func seqTrace(p *isa.Program, budget int) (core.Trace, bool, bool) {
	m := core.New(p)
	m.Regs.Write(isa.Reg(0), mem.Pub(1))
	m.Regs.Write(isa.Reg(1), mem.Pub(3))
	_, tr, err := core.RunSequential(m, budget)
	return tr, m.Halted(), err == nil
}

func FuzzRewrite(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 5, 4, 33, 2, 7, 1, 9})
	f.Add([]byte{5, 4, 18, 2, 1, 3, 6, 5, 2, 6, 0, 0, 4, 1, 8, 2, 3})
	f.Add([]byte{2, 5, 1, 6, 0, 2, 2, 4, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, rest, ok := genProgram(data)
		if !ok {
			t.Skip()
		}
		pl := genPlan(p, rest)
		rw, err := pl.Apply(p)
		var cj *isa.ComputedJumpError
		if errors.As(err, &cj) {
			t.Skip() // the repair engine refuses these as OutcomeUnsafeRewrite
		}
		if err != nil {
			t.Fatalf("hazard-free plan failed to apply: %v", err)
		}
		const budget = 256
		to, haltO, okO := seqTrace(p, budget)
		if !okO || !haltO {
			t.Skip() // faulting or non-terminating original; nothing to compare
		}
		tr, haltR, okR := seqTrace(rw.Prog, budget+len(rw.Inserted)*2)
		if !okR || !haltR {
			t.Fatalf("rewritten program no longer halts within the budget the original met")
		}
		if len(to) != len(tr) {
			t.Fatalf("trace length diverged: %d → %d\norig: %v\nrewritten: %v", len(to), len(tr), to, tr)
		}
		for i := range to {
			o, r := to[i], tr[i]
			if o.Kind != r.Kind || o.Addr != r.Addr || o.Label != r.Label {
				t.Fatalf("observation %d diverged: %v → %v", i, o, r)
			}
			if want := rw.Map.Target(o.Target); r.Target != want {
				t.Fatalf("observation %d target %d, want Map.Target(%d) = %d", i, r.Target, o.Target, want)
			}
		}
	})
}
