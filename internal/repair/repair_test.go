package repair

import (
	"errors"
	"testing"

	"pitchfork/internal/attacks"
	"pitchfork/internal/core"
	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
	"pitchfork/internal/pitchfork"
	"pitchfork/internal/testcases"
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
			return pitchfork.Analyze(mk(p), pitchfork.Options{Bound: 20, ForwardHazards: true})
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

// TestRepairRequiresOptions: a run without Verify or without Machine is
// refused before anything is analyzed.
func TestRepairRequiresOptions(t *testing.T) {
	prog, regs := fromAttack(attacks.Figure1())
	full := optionsFor(regs)
	for name, opts := range map[string]Options{
		"no Verify":  {Machine: full.Machine},
		"no Machine": {Verify: full.Verify},
	} {
		if res, err := Repair(prog, opts); err == nil || res != nil {
			t.Errorf("%s: got %v, %v; want a nil result and an error", name, res, err)
		}
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
		plan, err := fenceMitigation{}.Plan(orig, trial)
		if err != nil {
			t.Fatal(err)
		}
		rw, err := plan.Apply(orig)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := opts.Verify(rw.Prog)
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
	opts.MaxSeqInstrs = 1000
	res, err := Repair(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	base, err := runAttributed(opts.Machine(prog), opts.MaxSeqInstrs)
	if err != nil {
		t.Fatal(err)
	}
	retired, err := behaviourPreserved(base, res.rw, opts)
	if err != nil {
		t.Fatalf("behaviour certificate failed: %v", err)
	}
	m := opts.Machine(res.Prog)
	if _, _, err := core.RunSequential(m, 2*opts.MaxSeqInstrs); err != nil {
		t.Fatal(err)
	}
	if retired != m.Retired || res.SeqInstrs != m.Retired {
		t.Fatalf("certificate replay retired %d and Repair reported %d instructions, sequential run %d", retired, res.SeqInstrs, m.Retired)
	}
	// Sabotage the baseline: a mismatching jump target must be caught.
	for i := range base.obs {
		if base.obs[i].o.Kind == core.OJump {
			base.obs[i].o.Target += 7
		}
	}
	if _, err := behaviourPreserved(base, res.rw, opts); err == nil {
		t.Fatal("certificate accepted a divergent baseline")
	}
}

// TestMapAddrTargetSemantics pins MapTarget over a real fence plan:
// control targets shift past sites strictly below them and flow
// through a fence placed exactly at the target. A Result without a
// rewrite holds the input program, so it maps every target to itself.
func TestMapAddrTargetSemantics(t *testing.T) {
	b := isa.NewBuilder(1)
	for i := 0; i < 10; i++ {
		b.Op(isa.Reg(0), isa.OpAdd, isa.ImmW(0))
	}
	prog := b.MustBuild()
	sites := []isa.Addr{2, 5}
	plan, err := fenceMitigation{}.Plan(prog, sites)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := plan.Apply(prog)
	if err != nil {
		t.Fatal(err)
	}
	rewritten := &Result{Prog: rw.Prog, Sites: sites, rw: rw}
	unrewritten := &Result{Prog: prog, Sites: sites}
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
		if got := rewritten.MapTarget(c.in); got != c.target {
			t.Errorf("MapTarget(%d) = %d, want %d", c.in, got, c.target)
		}
		if got := unrewritten.MapTarget(c.in); got != c.in {
			t.Errorf("unrewritten MapTarget(%d) = %d, want %d", c.in, got, c.in)
		}
	}
}

// TestGiveUpHandsBackInput covers every exit of a strategy run that
// ends without a certified rewrite: whatever the engine tried, the
// result describes the input program — Prog is the input, After
// reports what Before reports, MapTarget is the identity and no
// instruction counts as inserted.
func TestGiveUpHandsBackInput(t *testing.T) {
	// secondVerify replaces the second Verify call (the first after the
	// baseline) with fail.
	secondVerify := func(opts Options, fail func() (pitchfork.Report, error)) Options {
		verify, calls := opts.Verify, 0
		opts.Verify = func(p *isa.Program) (pitchfork.Report, error) {
			if calls++; calls == 2 {
				return fail()
			}
			return verify(p)
		}
		return opts
	}
	withStrategy := func(opts Options, s string) Options {
		opts.Strategy = s
		return opts
	}

	fig1, fig1Regs := fromAttack(attacks.Figure1())
	kocher, err := testcases.Kocher()[0].Build()
	if err != nil {
		t.Fatal(err)
	}
	// The maskable gadget with a final read of the mask pass's scratch
	// register: the pass proposes the branch, then refuses to plan.
	masked, maskRegs := maskableGadget()
	masked.Add(6, isa.Op(isa.Reg(3), isa.OpMov, []isa.Operand{isa.R(mem.RTMP)}, 7))
	jmpi, jmpiRegs := computedJumpGadget(t)

	cases := []struct {
		name    string
		prog    *isa.Program
		opts    Options
		outcome Outcome
		iters   int // rounds run before the exit
		wantErr bool
	}{
		{"no progress", fig1, withStrategy(optionsFor(fig1Regs), StrategyRet), OutcomeExhausted, 0, false},
		{"ret exhausted after round 1", kocher.Prog, withStrategy(corpusOptions(), StrategyRet), OutcomeExhausted, 1, false},
		{"mask plan error", masked, withStrategy(optionsFor(maskRegs), StrategyMask), OutcomeExhausted, 1, false},
		{"jmpi hazard", jmpi, optionsFor(jmpiRegs), OutcomeUnsafeRewrite, 1, false},
		{"verification error", fig1, secondVerify(optionsFor(fig1Regs), func() (pitchfork.Report, error) {
			return pitchfork.Report{}, errors.New("verifier unavailable")
		}), OutcomeFailed, 1, true},
		{"truncated clean report", fig1, secondVerify(optionsFor(fig1Regs), func() (pitchfork.Report, error) {
			var rep pitchfork.Report
			rep.States, rep.Truncated = 3, true
			return rep, nil
		}), OutcomeFailed, 1, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Repair(c.prog, c.opts)
			if (err != nil) != c.wantErr {
				t.Fatalf("err = %v, want error %v", err, c.wantErr)
			}
			if res.Outcome != c.outcome || res.Iterations != c.iters {
				t.Fatalf("outcome = %s after %d rounds, want %s after %d", res.Outcome, res.Iterations, c.outcome, c.iters)
			}
			if res.Before.SecretFree() {
				t.Fatal("baseline must be flagged for the exit to be reached")
			}
			if res.Prog != c.prog {
				t.Error("Prog is not the input program")
			}
			if res.After.States != res.Before.States || len(res.After.Violations) != len(res.Before.Violations) {
				t.Errorf("After reports %d states, %d violations; Before %d, %d",
					res.After.States, len(res.After.Violations), res.Before.States, len(res.Before.Violations))
			}
			for _, pp := range c.prog.Points() {
				if got := res.MapTarget(pp); got != pp {
					t.Errorf("MapTarget(%d) = %d, want the identity", pp, got)
				}
			}
			if len(res.Fences) != 0 || res.PreMinimizeFences != 0 {
				t.Errorf("Fences = %v, PreMinimizeFences = %d on an unrewritten result", res.Fences, res.PreMinimizeFences)
			}
		})
	}
}
