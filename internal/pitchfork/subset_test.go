package pitchfork

import (
	"errors"
	"testing"

	"pitchfork/internal/core"
	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
	"pitchfork/internal/symx"
)

// TestSymbolicSubset pins the part of the semantics the symbolic domain
// leaves out, like the original tool: aliasing prediction
// (execute i : fwd j) and an indirect jump whose target stays symbolic
// both stall, leaving the machine unchanged, even though the rules the
// domain shares with the concrete machine would apply them.
func TestSymbolicSubset(t *testing.T) {
	ra := isa.Reg(1)

	t.Run("fwd", func(t *testing.T) {
		b := isa.NewBuilder(1)
		b.Store(isa.ImmW(7), isa.ImmW(0x50)) // value pre-resolved at fetch
		b.Load(ra, isa.ImmW(0x50))
		p := b.MustBuild()
		fwd := core.ExecuteFwd(2, 1)

		c := core.New(p)
		if _, err := c.Run(core.Schedule{core.Fetch(), core.Fetch(), fwd}); err != nil {
			t.Fatalf("concrete machine must predict the forward: %v", err)
		}

		s := newSymMachine(NewSym(p))
		for _, d := range []core.Directive{core.Fetch(), core.Fetch()} {
			if _, err := s.Successors(d); err != nil {
				t.Fatal(err)
			}
		}
		wantStall(t, s, fwd)
	})

	t.Run("symbolic jmpi target", func(t *testing.T) {
		b := isa.NewBuilder(1)
		b.Jmpi(isa.R(ra))
		b.Op(ra, isa.OpAdd, isa.ImmW(0)) // 2: a target the guess may name
		p := b.MustBuild()
		init := NewSym(p)
		init.SetReg(ra, symx.NewVar("x", mem.Public))

		s := newSymMachine(init)
		if _, ok := s.PeekJmpi(s.Instr()); ok {
			t.Fatal("a symbolic jump target must not resolve for fetch")
		}
		if _, err := s.Successors(core.FetchTarget(2)); err != nil {
			t.Fatal(err)
		}
		wantStall(t, s, core.Execute(1))
	})
}

// wantStall applies d and requires a stall that leaves s as it was.
func wantStall(t *testing.T, s *symMachine, d core.Directive) {
	t.Helper()
	before := s.Fingerprint()
	if _, err := s.Successors(d); !errors.Is(err, core.ErrStall) {
		t.Fatalf("%s: got %v, want a stall", d, err)
	}
	if s.Fingerprint() != before {
		t.Fatalf("%s: a stalled step changed the machine", d)
	}
}
