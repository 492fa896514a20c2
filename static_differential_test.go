// Soundness oracle for the static speculative-taint pre-analysis
// (internal/taint), checked against the explorers over the full
// corpora and the paper's attack gallery:
//
//  1. Soundness of the verdict: a program the static pass certifies
//     safe is never flagged by either explorer, and every explorer
//     finding lands on a program point the static pass already calls
//     suspicious.
//  2. Non-vacuity: hand-built secret-free programs exercise the
//     certify-without-exploring leg (the corpora are all leaky).
package pitchfork_test

import (
	"testing"

	"pitchfork/internal/attacks"
	"pitchfork/internal/core"
	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
	"pitchfork/internal/pitchfork"
	"pitchfork/internal/taint"
	"pitchfork/internal/testcases"
)

// taintConfigOf seeds the taint analysis exactly like the concrete
// explorer sees the machine: the program plus the labels of every
// initial register and memory cell.
func taintConfigOf(m *core.Machine) taint.Config {
	cfg := taint.Config{
		Prog: m.Prog,
		Regs: map[isa.Reg]mem.Label{},
		Mem:  map[isa.Addr]mem.Label{},
	}
	for _, r := range m.Regs.Registers() {
		cfg.Regs[r] = m.Regs.Read(r).L
	}
	for _, a := range m.Mem.Addresses() {
		cfg.Mem[a] = m.Mem.Read(a).L
	}
	return cfg
}

func staticOfMachine(t *testing.T, m *core.Machine) *taint.Report {
	t.Helper()
	rep, err := taint.Analyze(taintConfigOf(m))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// staticOfSym does the same for a symbolic initial configuration,
// labeling each register and cell with its expression's label (an
// unconstrained public variable stays public; secrets stay secret).
func staticOfSym(t *testing.T, sm *pitchfork.SymMachine) *taint.Report {
	t.Helper()
	cfg := taint.Config{
		Prog: sm.Prog,
		Regs: map[isa.Reg]mem.Label{},
		Mem:  map[isa.Addr]mem.Label{},
	}
	for r, e := range sm.Regs {
		cfg.Regs[r] = e.Label()
	}
	for _, a := range sm.Mem.Addresses() {
		cfg.Mem[a] = sm.Mem.Read(a).Label()
	}
	rep, err := taint.Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func allCorpora() []testcases.Case {
	cases := append([]testcases.Case{}, testcases.Kocher()...)
	cases = append(cases, testcases.SpecOnlyV1()...)
	return append(cases, testcases.V11()...)
}

// checkSoundAgainst asserts the two soundness directions between a
// static report and an explorer report on the same machine.
func checkSoundAgainst(t *testing.T, static *taint.Report, rep pitchfork.Report, mode string) {
	t.Helper()
	if static.Safe() && len(rep.Violations) > 0 {
		t.Errorf("%s: static pass certified safe but the explorer found %d violation(s); first: %v",
			mode, len(rep.Violations), rep.Violations[0])
	}
	for _, v := range rep.Violations {
		if static.SafePoint(isa.Addr(v.PC)) {
			t.Errorf("%s: explorer violation at pc=%d but the static pass calls that point safe", mode, v.PC)
		}
	}
}

func TestStaticSoundnessOnCorpora(t *testing.T) {
	for _, c := range allCorpora() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			opts := pitchfork.Options{Bound: 20, ForwardHazards: c.NeedsFwdHazards}

			m, err := c.Build()
			if err != nil {
				t.Fatal(err)
			}
			static := staticOfMachine(t, m)
			rep, err := pitchfork.Analyze(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkSoundAgainst(t, static, rep, "concrete")

			sm, err := c.BuildSym()
			if err != nil {
				t.Fatal(err)
			}
			staticSym := staticOfSym(t, sm)
			srep, err := pitchfork.AnalyzeSymbolic(sm, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkSoundAgainst(t, staticSym, srep, "symbolic")
		})
	}
}

func TestStaticSoundnessOnGallery(t *testing.T) {
	for _, a := range attacks.Gallery() {
		a := a
		t.Run(a.ID, func(t *testing.T) {
			t.Parallel()
			opts := pitchfork.Options{Bound: 20, ForwardHazards: true}
			static := staticOfMachine(t, a.New())

			rep, err := pitchfork.Analyze(a.New(), opts)
			if err != nil {
				t.Fatal(err)
			}
			checkSoundAgainst(t, static, rep, "concrete")
			if a.WantSecretLeak && static.Safe() {
				t.Errorf("gallery attack leaks under its own schedule but the static pass certified it safe")
			}
		})
	}
}

// safePrograms builds secret-free machines: the corpora and the
// gallery are all leaky, so without these the certify leg of the
// soundness test would never fire.
func safePrograms(t *testing.T) map[string]func() *core.Machine {
	t.Helper()
	return map[string]func() *core.Machine{
		// Public bounds-checked lookup over public data.
		"public-lookup": func() *core.Machine {
			b := isa.NewBuilder(1)
			b.Region(100, mem.Pub(3), mem.Pub(1), mem.Pub(4), mem.Pub(1))
			b.Br(isa.OpLt, []isa.Operand{isa.R(0), isa.ImmW(4)}, 2, 4)
			b.Load(isa.Reg(1), isa.ImmW(100), isa.R(0))
			b.Load(isa.Reg(2), isa.ImmW(100), isa.R(1))
			return core.New(b.MustBuild())
		},
		// Secret data read through public addresses only: reading a
		// secret is constant-time; only address/branch exposure leaks.
		"secret-read-public-addr": func() *core.Machine {
			b := isa.NewBuilder(1)
			b.Data(100, mem.Sec(42))
			b.Data(101, mem.Pub(7))
			b.Load(isa.Reg(0), isa.ImmW(100))
			b.Op(isa.Reg(1), isa.OpAdd, isa.R(0), isa.ImmW(1))
			b.Store(isa.R(1), isa.ImmW(100))
			b.Load(isa.Reg(2), isa.ImmW(101))
			return core.New(b.MustBuild())
		},
		// A fenced secret-dependent region: the fence does not make the
		// sink safe statically (the sink model is per point), but the
		// branch/load here never see secrets at all.
		"straightline-public": func() *core.Machine {
			b := isa.NewBuilder(1)
			b.Data(200, mem.Pub(9))
			b.Op(isa.Reg(0), isa.OpAdd, isa.ImmW(200), isa.ImmW(0))
			b.Load(isa.Reg(1), isa.R(0))
			b.Fence()
			b.Store(isa.R(1), isa.ImmW(200))
			return core.New(b.MustBuild())
		},
	}
}

func TestStaticCertifiesSafePrograms(t *testing.T) {
	for name, mk := range safePrograms(t) {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			static := staticOfMachine(t, mk())
			if !static.Safe() {
				t.Fatalf("secret-free program not certified: suspicious %v", static.SuspiciousPoints())
			}
			opts := pitchfork.Options{Bound: 20, ForwardHazards: true}
			rep, err := pitchfork.Analyze(mk(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) > 0 {
				t.Fatalf("certified-safe program flagged by the explorer: %v", rep.Violations)
			}
		})
	}
}
