package repair

import (
	"testing"

	"pitchfork/internal/attacks"
	"pitchfork/internal/core"
	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
	"pitchfork/internal/pitchfork"
)

// optionsFor builds engine options that verify with the concrete
// detector at the hazard-aware bound, seeding the machine's registers
// from regs.
func optionsFor(regs map[isa.Reg]mem.Value) Options {
	mk := func(p *isa.Program) *core.Machine {
		m := core.New(p)
		for r, v := range regs {
			m.Regs.Write(r, v)
		}
		return m
	}
	return Options{
		Verify: func(p *isa.Program) (pitchfork.Report, error) {
			// Fingerprint dedup keeps the state count of multi-instruction
			// rewrites (retpolines, masks) inside the default budget;
			// findings are identical with and without it.
			return pitchfork.Analyze(mk(p), pitchfork.Options{Bound: 20, ForwardHazards: true, DedupEntries: 1 << 20})
		},
		Machine: mk,
	}
}

// fromAttack extracts the program and register seeds of a gallery
// figure so the engine can rebuild machines for rewritten programs.
func fromAttack(a attacks.Attack) (*isa.Program, map[isa.Reg]mem.Value) {
	m := a.New()
	regs := make(map[isa.Reg]mem.Value)
	for _, r := range m.Regs.Registers() {
		regs[r] = m.Regs.Read(r)
	}
	return m.Prog, regs
}

func mustRepair(t *testing.T, a attacks.Attack) *Result {
	t.Helper()
	prog, regs := fromAttack(a)
	res, err := Repair(prog, optionsFor(regs))
	if err != nil {
		t.Fatalf("Repair(%s): %v", a.ID, err)
	}
	return res
}

// TestRepairFigure1 repairs the Spectre v1 running example and expects
// the engine to synthesize exactly the Figure 8 patch: one fence at
// the head of the mispredicted arm.
func TestRepairFigure1(t *testing.T) {
	res := mustRepair(t, attacks.Figure1())
	if res.Outcome != OutcomeRepaired {
		t.Fatalf("outcome = %s, want repaired", res.Outcome)
	}
	if !res.After.SecretFree() {
		t.Fatalf("repaired program still flagged: %s", res.After.Summary())
	}
	if len(res.Sites) != 1 || res.Sites[0] != 2 {
		t.Fatalf("sites = %v, want the Figure 8 fence before point 2", res.Sites)
	}
	in, ok := res.Prog.At(res.Fences[0])
	if !ok || in.Kind != isa.KFence {
		t.Fatalf("no fence at reported point %d", res.Fences[0])
	}
	if res.Before.SecretFree() {
		t.Fatal("baseline report should carry the violation")
	}
}

// TestRepairFigure7 repairs the Spectre v4 stale-load gadget: the
// guarding source is the late store, so the fence lands right after
// it.
func TestRepairFigure7(t *testing.T) {
	res := mustRepair(t, attacks.Figure7())
	if res.Outcome != OutcomeRepaired {
		t.Fatalf("outcome = %s, want repaired", res.Outcome)
	}
	if len(res.Sites) != 1 || res.Sites[0] != 3 {
		t.Fatalf("sites = %v, want a single fence between the store (2) and the load (3)", res.Sites)
	}
	// The source mapping must have identified the store, not fallen
	// back to fencing the leak.
	if v := res.Before.Violations[0]; len(v.Sources) == 0 {
		t.Fatal("baseline violation carries no speculation sources")
	}
}

// TestRepairFigure6 repairs the Spectre v1.1 speculative
// store-forwarding gadget (guard: the bounds-check branch).
func TestRepairFigure6(t *testing.T) {
	res := mustRepair(t, attacks.Figure6())
	if res.Outcome != OutcomeRepaired {
		t.Fatalf("outcome = %s, want repaired", res.Outcome)
	}
	if !res.After.SecretFree() {
		t.Fatalf("repaired program still flagged: %s", res.After.Summary())
	}
}

// TestRepairCleanProgram leaves an already-safe program untouched.
func TestRepairCleanProgram(t *testing.T) {
	res := mustRepair(t, attacks.Figure8())
	if res.Outcome != OutcomeClean {
		t.Fatalf("outcome = %s, want clean", res.Outcome)
	}
	if len(res.Sites) != 0 || res.Iterations != 0 {
		t.Fatalf("clean program grew sites %v over %d iterations", res.Sites, res.Iterations)
	}
}

// TestRepairSequentialLeak refuses to "repair" a program that leaks
// with no speculation at all: fences only constrain scheduling.
func TestRepairSequentialLeak(t *testing.T) {
	ra, rb := isa.Reg(0), isa.Reg(1)
	b := isa.NewBuilder(1)
	b.Load(rb, isa.ImmW(0x40), isa.R(ra)) // address depends on the secret in ra
	prog := b.MustBuild()
	res, err := Repair(prog, optionsFor(map[isa.Reg]mem.Value{ra: mem.Sec(2)}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeSequentialLeak {
		t.Fatalf("outcome = %s, want sequential-leak", res.Outcome)
	}
	if res.Prog.Len() != prog.Len() {
		t.Fatal("unrepairable program was rewritten")
	}
}

// TestMinimizedSetIs1Minimal checks the greedy-deletion guarantee on a
// program with two independent bounds-check-bypass gadgets in
// sequence: one fence per mispredicted arm is necessary and
// sufficient, the off-arm fences the source rule also proposed are
// deleted, and removing either survivor reintroduces a violation.
func TestMinimizedSetIs1Minimal(t *testing.T) {
	ra, rb, rc := isa.Reg(0), isa.Reg(1), isa.Reg(2)
	bounds := []isa.Operand{isa.ImmW(4), isa.R(ra)}
	b := isa.NewBuilder(1)
	b.Br(isa.OpGt, bounds, 2, 4) // 1: first bounds check, arch. not taken
	b.Load(rb, isa.ImmW(0x40), isa.R(ra))
	b.Load(rc, isa.ImmW(0x44), isa.R(rb))
	b.Br(isa.OpGt, bounds, 5, 7) // 4: second, independent bounds check
	b.Load(rb, isa.ImmW(0x40), isa.R(ra))
	b.Load(rc, isa.ImmW(0x44), isa.R(rb))
	b.Region(0x40, mem.Pub(10), mem.Pub(11), mem.Pub(12), mem.Pub(13))
	b.Region(0x44, mem.Pub(20), mem.Pub(21), mem.Pub(22), mem.Pub(23))
	b.Region(0x48, mem.Sec(0xA0), mem.Sec(0xA1), mem.Sec(0xA2), mem.Sec(0xA3))
	prog := b.MustBuild()
	opts := optionsFor(map[isa.Reg]mem.Value{ra: mem.Pub(9)}) // out of bounds
	res, err := Repair(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeRepaired {
		t.Fatalf("outcome = %s, want repaired", res.Outcome)
	}
	if len(res.Sites) != 2 || res.Sites[0] != 2 || res.Sites[1] != 5 {
		t.Fatalf("minimized sites = %v, want one fence per leaking arm [2 5]", res.Sites)
	}
	if res.PreMinimizeFences <= len(res.Sites) {
		t.Fatalf("minimization removed nothing: %d → %d", res.PreMinimizeFences, len(res.Sites))
	}
	assert1Minimal(t, prog, res, opts)
}

// assert1Minimal verifies that removing any single fence from the
// minimized set reintroduces a violation.
func assert1Minimal(t *testing.T, orig *isa.Program, res *Result, opts Options) {
	t.Helper()
	if len(res.Sites) == 0 {
		t.Fatal("repaired with an empty fence set")
	}
	for _, s := range res.Sites {
		trial := without(res.Sites, s)
		rp, _ := applySites(orig, trial)
		rep, err := opts.Verify(rp)
		if err != nil {
			t.Fatal(err)
		}
		if rep.SecretFree() {
			t.Errorf("fence set %v is not minimal: removing site %d stays clean", res.Sites, s)
		}
	}
}

// TestRepairBehaviourCertificate: the repaired program's sequential
// trace must match the original's modulo the fence shift. Figure 1's
// repair exercises the jump-target remapping (the branch's false arm
// moves).
func TestRepairBehaviourCertificate(t *testing.T) {
	prog, regs := fromAttack(attacks.Figure1())
	opts := optionsFor(regs)
	res, err := Repair(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	base, err := runAttributed(func() *core.Machine { return opts.Machine(prog) }, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := behaviourPreserved(base, res, opts); err != nil {
		t.Fatalf("behaviour certificate failed: %v", err)
	}
	// Sabotage the baseline: a mismatching jump target must be caught.
	for i := range base.obs {
		if base.obs[i].o.Kind == core.OJump {
			base.obs[i].o.Target += 7
		}
	}
	if err := behaviourPreserved(base, res, opts); err == nil {
		t.Fatal("certificate accepted a divergent baseline")
	}
}

// TestMapAddrTargetSemantics pins the target map: control targets
// shift past sites strictly below them and flow through a fence placed
// exactly at the target.
func TestMapAddrTargetSemantics(t *testing.T) {
	res := &Result{Sites: []isa.Addr{2, 5}}
	cases := []struct {
		in, target isa.Addr
	}{
		{1, 1},
		{2, 2}, // site itself: target flows through the fence
		{3, 4},
		{5, 6},
		{9, 11},
	}
	for _, c := range cases {
		if got := res.MapTarget(c.in); got != c.target {
			t.Errorf("MapTarget(%d) = %d, want %d", c.in, got, c.target)
		}
	}
}
