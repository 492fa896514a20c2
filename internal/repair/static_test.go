package repair

import (
	"errors"
	"testing"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

func TestComputedJumpHazard(t *testing.T) {
	// 1: op, 2: op, 3: jmpi 5 (single immediate), 4: op, 5: op
	b := isa.NewBuilder(1)
	b.Op(isa.Reg(0), isa.OpAdd, isa.ImmW(0))
	b.Op(isa.Reg(0), isa.OpAdd, isa.ImmW(0))
	b.Jmpi(isa.ImmW(5))
	b.Op(isa.Reg(0), isa.OpAdd, isa.ImmW(0))
	b.Op(isa.Reg(0), isa.OpAdd, isa.ImmW(0))
	imm, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// 1: jmpi r0 (register target), 2: op
	b2 := isa.NewBuilder(1)
	b2.Jmpi(isa.R(isa.Reg(0)))
	b2.Op(isa.Reg(0), isa.OpAdd, isa.ImmW(0))
	reg, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		why    string
		p      *isa.Program
		sites  []isa.Addr
		hazard bool
		pc     isa.Addr
	}{
		{"empty site set cannot shift anything", imm, nil, false, 0},
		// A fence at or above the target leaves the target's address alone.
		{"site at the jump target does not shift it", imm, []isa.Addr{5}, false, 0},
		{"site above the jump target does not shift it", imm, []isa.Addr{6}, false, 0},
		// A fence below the target shifts it: the immediate now names
		// the wrong instruction.
		{"site below the target must be a hazard at the jmpi", imm, []isa.Addr{2}, true, 3},
		// A register-target jmpi is unanalyzable: any insertion is a hazard.
		{"register-target jmpi must flag any site", reg, []isa.Addr{2}, true, 1},
		{"register-target jmpi with no sites is still not a hazard", reg, nil, false, 0},
	}
	for _, c := range cases {
		plan, err := fenceMitigation{}.Plan(c.p, c.sites)
		if err != nil {
			t.Fatal(err)
		}
		_, err = plan.Apply(c.p)
		var cj *isa.ComputedJumpError
		hazard := errors.As(err, &cj)
		if !hazard && err != nil {
			t.Fatalf("%s: %v", c.why, err)
		}
		if hazard != c.hazard || (hazard && cj.Jump != c.pc) {
			t.Errorf("%s: got %v", c.why, err)
		}
	}
}

// computedJumpGadget is a v1 gadget that sits below a computed jump's
// immediate target, so a fence in the gadget would shift the target.
// r0 = 1 (the returned seed) is out of bounds.
//
//	1: br (r0 < 1) → 2 / 4   bounds check
//	2: load r1 = [100 + r0]  transiently reads the secret at 101
//	3: load r2 = [200 + r1]  leaks it through the address
//	4: jmpi 6                computed jump over the landing pad
//	5: op                    (dead)
//	6: op                    join point
func computedJumpGadget(t *testing.T) (*isa.Program, map[isa.Reg]mem.Value) {
	t.Helper()
	b := isa.NewBuilder(1)
	b.Data(100, mem.Pub(0))
	b.Data(101, mem.Sec(7))
	b.Data(200, mem.Pub(0))
	b.Br(isa.OpLt, []isa.Operand{isa.R(isa.Reg(0)), isa.ImmW(1)}, 2, 4)
	b.Load(isa.Reg(1), isa.ImmW(100), isa.R(isa.Reg(0)))
	b.Load(isa.Reg(2), isa.ImmW(200), isa.R(isa.Reg(1)))
	b.Jmpi(isa.ImmW(6))
	b.Op(isa.Reg(3), isa.OpAdd, isa.ImmW(0))
	b.Op(isa.Reg(3), isa.OpAdd, isa.ImmW(0))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p, map[isa.Reg]mem.Value{isa.Reg(0): mem.Pub(1)}
}

// TestRepairRefusesComputedJumpRewrite runs the full engine on the
// computed-jump gadget: the synthesized fence would shift the jump's
// target, so the engine must refuse the rewrite rather than emit a
// program with silently retargeted control flow.
func TestRepairRefusesComputedJumpRewrite(t *testing.T) {
	p, regs := computedJumpGadget(t)
	res, err := Repair(p, optionsFor(regs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Before.SecretFree() {
		t.Fatal("baseline must carry the v1 violation for the test to mean anything")
	}
	if res.Outcome != OutcomeUnsafeRewrite {
		t.Fatalf("outcome = %s, want unsafe-rewrite", res.Outcome)
	}
	if res.UnsafeJump != 4 {
		t.Errorf("UnsafeJump = %d, want the jmpi at 4", res.UnsafeJump)
	}
	if res.Prog != p {
		t.Error("a refused rewrite must hand back the original program")
	}
	if res.Outcome.Secured() {
		t.Error("unsafe-rewrite must not read as secured")
	}
}
