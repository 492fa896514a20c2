package spectre_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"pitchfork/spectre"
)

const (
	ra = spectre.Reg(0)
	rb = spectre.Reg(1)
	rc = spectre.Reg(2)
)

// v1Program is the Figure 1 gadget: bounds check, then the classic
// double load, with the secret key adjacent to the public array.
func v1Program(idx spectre.Word) *spectre.Program {
	return spectre.NewProgramBuilder().
		Br(spectre.OpGt, []spectre.Operand{spectre.Imm(4), spectre.R(ra)}, 2, 4).
		Load(rb, spectre.Imm(0x40), spectre.R(ra)).
		Load(rc, spectre.Imm(0x44), spectre.R(rb)).
		Public(0x40, 1, 2, 3, 4).
		Public(0x44, 5, 6, 7, 8).
		Secret(0x48, 0xA0, 0xA1, 0xA2, 0xA3).
		SetReg(ra, idx).
		MustBuild()
}

// v4Program is the Figure 7 gadget: a zeroing store whose address
// resolves late, then a double load over the stale secret.
func v4Program() *spectre.Program {
	return spectre.NewProgramBuilder().
		Store(spectre.Imm(0), spectre.Imm(3), spectre.R(ra)).
		Load(rc, spectre.Imm(0x43)).
		Load(rc, spectre.Imm(0x44), spectre.R(rc)).
		Secret(0x40, 1, 2, 3, 0x5A).
		Public(0x44, 5, 6, 7, 8).
		SetReg(ra, 0x40).
		MustBuild()
}

// wideProgram is a victim whose misprediction leaks on the first
// explored path, followed by a deep cascade of branches that makes the
// remaining exploration expensive — the shape the cancellation tests
// need: an early finding and a lot of work left.
func wideProgram(branches int) *spectre.Program {
	pb := spectre.NewProgramBuilder().
		// 4 < ra is true for ra=9, so the architectural path skips the
		// loads; the mispredicted (guess-false) arm leaks and is the
		// arm depth-first exploration enters first.
		Br(spectre.OpLt, []spectre.Operand{spectre.Imm(4), spectre.R(ra)}, 4, 2).
		Load(rb, spectre.Imm(0x40), spectre.R(ra)).
		Load(rc, spectre.Imm(0x44), spectre.R(rb))
	for i := 0; i < branches; i++ {
		n := pb.Here()
		pb.Br(spectre.OpGt, []spectre.Operand{spectre.Imm(4), spectre.R(ra)}, n+1, n+1)
	}
	return pb.
		Public(0x40, 1, 2, 3, 4).
		Public(0x44, 5, 6, 7, 8).
		Secret(0x48, 0xA0, 0xA1, 0xA2, 0xA3).
		SetReg(ra, 9).
		MustBuild()
}

func mustNew(t *testing.T, opts ...spectre.Option) *spectre.Analyzer {
	t.Helper()
	an, err := spectre.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func mustRun(t *testing.T, an *spectre.Analyzer, p *spectre.Program) *spectre.Report {
	t.Helper()
	rep, err := an.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestNewRejectsBadOptions(t *testing.T) {
	if _, err := spectre.New(spectre.WithBound(0)); err == nil {
		t.Fatal("bound 0 must be rejected")
	}
	if _, err := spectre.New(spectre.WithBound(-3)); err == nil {
		t.Fatal("negative bound must be rejected")
	}
	if _, err := spectre.New(spectre.WithMaxStates(-1)); err == nil {
		t.Fatal("negative max states must be rejected")
	}
	if _, err := spectre.New(spectre.WithMaxRetired(-1)); err == nil {
		t.Fatal("negative max retired must be rejected")
	}
}

func TestBoundPlumbing(t *testing.T) {
	// At bound 20 the v1 gadget leaks; at bound 1 there is no
	// speculation window, so the same program is clean.
	rep := mustRun(t, mustNew(t, spectre.WithBound(20)), v1Program(9))
	if rep.SecretFree {
		t.Fatal("v1 gadget must leak at bound 20")
	}
	if rep.Bound != 20 || rep.Mode != "concrete" {
		t.Fatalf("report metadata wrong: bound %d mode %q", rep.Bound, rep.Mode)
	}
	if got := rep.Findings[0].Variant; got != spectre.VariantV1 {
		t.Fatalf("variant = %q, want %q", got, spectre.VariantV1)
	}
	rep = mustRun(t, mustNew(t, spectre.WithBound(1)), v1Program(9))
	if !rep.SecretFree {
		t.Fatal("bound 1 must close the speculation window")
	}
}

func TestForwardHazardsPlumbing(t *testing.T) {
	on := mustRun(t, mustNew(t, spectre.WithBound(20), spectre.WithForwardHazards(true)), v4Program())
	if on.SecretFree {
		t.Fatal("v4 gadget must leak with forwarding hazards on")
	}
	if got := on.Findings[0].Variant; got != spectre.VariantV4 {
		t.Fatalf("variant = %q, want %q", got, spectre.VariantV4)
	}
	off := mustRun(t, mustNew(t, spectre.WithBound(20), spectre.WithForwardHazards(false)), v4Program())
	if !off.SecretFree {
		t.Fatal("v4 gadget must be invisible with forwarding hazards off")
	}
	if on.ForwardHazards != true || off.ForwardHazards != false {
		t.Fatal("ForwardHazards must be recorded in the report")
	}
}

func TestMaxStatesPlumbing(t *testing.T) {
	rep := mustRun(t, mustNew(t, spectre.WithMaxStates(10)), wideProgram(8))
	if !rep.Truncated {
		t.Fatal("tiny state budget must truncate")
	}
	if rep.States != 10 {
		t.Fatalf("states = %d, want exactly the budget 10", rep.States)
	}
}

func TestMaxRetiredPlumbing(t *testing.T) {
	// A straight-line program: one path; a small retired budget must
	// cut it short, visible as fewer explored states.
	pb := spectre.NewProgramBuilder()
	for i := 0; i < 100; i++ {
		pb.Op(ra, spectre.OpAdd, spectre.R(ra), spectre.Imm(1))
	}
	prog := pb.MustBuild()
	full := mustRun(t, mustNew(t), prog)
	capped := mustRun(t, mustNew(t, spectre.WithMaxRetired(5)), prog)
	if capped.States >= full.States {
		t.Fatalf("retired budget must shorten the path: capped %d states, full %d", capped.States, full.States)
	}
}

// doubleV1Program chains two independent v1 gadgets, so the full
// exploration reports two findings (one per mispredicted guard).
func doubleV1Program() *spectre.Program {
	pb := spectre.NewProgramBuilder()
	for i := 0; i < 2; i++ {
		n := pb.Here()
		pb.Br(spectre.OpGt, []spectre.Operand{spectre.Imm(4), spectre.R(ra)}, n+1, n+3).
			Load(rb, spectre.Imm(0x40), spectre.R(ra)).
			Load(rc, spectre.Imm(0x44), spectre.R(rb))
	}
	return pb.
		Public(0x40, 1, 2, 3, 4).
		Public(0x44, 5, 6, 7, 8).
		Secret(0x48, 0xA0, 0xA1, 0xA2, 0xA3).
		SetReg(ra, 9).
		MustBuild()
}

func TestStopAtFirstPlumbing(t *testing.T) {
	all := mustRun(t, mustNew(t, spectre.WithBound(20)), doubleV1Program())
	if len(all.Findings) < 2 {
		t.Fatalf("full exploration must report multiple findings, got %d", len(all.Findings))
	}
	first := mustRun(t, mustNew(t, spectre.WithBound(20), spectre.WithStopAtFirst(true)), doubleV1Program())
	if len(first.Findings) != 1 {
		t.Fatalf("StopAtFirst must report exactly one finding, got %d", len(first.Findings))
	}
}

func TestSymbolicModeWithWitness(t *testing.T) {
	prog := spectre.NewProgramBuilder().
		Br(spectre.OpGt, []spectre.Operand{spectre.Imm(4), spectre.R(ra)}, 2, 4).
		Load(rb, spectre.Imm(0x40), spectre.R(ra)).
		Load(rc, spectre.Imm(0x44), spectre.R(rb)).
		Public(0x40, 1, 2, 3, 4).
		Public(0x44, 5, 6, 7, 8).
		Secret(0x48, 0xA0, 0xA1, 0xA2, 0xA3).
		SymbolicReg(ra, "x").
		MustBuild()
	an := mustNew(t,
		spectre.WithBound(20),
		spectre.WithSymbolic(true),
		spectre.WithStopAtFirst(true),
	)
	rep := mustRun(t, an, prog)
	if rep.Mode != "symbolic" {
		t.Fatalf("mode = %q, want symbolic", rep.Mode)
	}
	if rep.SecretFree {
		t.Fatal("symbolic analysis must find the v1 leak with x unconstrained")
	}
	if _, ok := rep.Findings[0].Witness["x"]; !ok {
		t.Fatalf("finding must carry a witness for x, got %v", rep.Findings[0].Witness)
	}
	// PC attribution matches concrete mode: the leaking load at point 3,
	// not the fetch head at detection time.
	if got := rep.Findings[0].PC; got != 3 {
		t.Fatalf("symbolic finding PC = %d, want 3 (the leaking load)", got)
	}
}

func TestStreamDeliversAndStops(t *testing.T) {
	var streamed []spectre.Finding
	an := mustNew(t, spectre.WithBound(20))
	rep, err := an.Stream(context.Background(), v1Program(9), func(f spectre.Finding) bool {
		streamed = append(streamed, f)
		return false // stop after the first finding
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != 1 {
		t.Fatalf("yield must fire exactly once, got %d", len(streamed))
	}
	if !rep.Interrupted {
		t.Fatal("a stopping yield must mark the report interrupted")
	}
	if len(rep.Findings) != 1 || rep.Findings[0].String() != streamed[0].String() {
		t.Fatal("the streamed finding must match the report")
	}
	if _, err := an.Stream(context.Background(), v1Program(9), nil); err == nil {
		t.Fatal("nil yield must be rejected")
	}
}

func TestFindingsIterator(t *testing.T) {
	an := mustNew(t, spectre.WithBound(20))
	count := 0
	for f := range an.Findings(context.Background(), v1Program(9)) {
		if f.Variant != spectre.VariantV1 {
			t.Fatalf("variant = %q, want %q", f.Variant, spectre.VariantV1)
		}
		count++
		break // early break must stop the exploration cleanly
	}
	if count != 1 {
		t.Fatalf("iterator yielded %d findings before break, want 1", count)
	}
}

func TestContextCancellationMidExploration(t *testing.T) {
	prog := wideProgram(14) // thousands of paths after the early leak
	an := mustNew(t, spectre.WithBound(20), spectre.WithMaxStates(1_000_000))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var partial []spectre.Finding
	rep, err := an.Stream(ctx, prog, func(f spectre.Finding) bool {
		partial = append(partial, f)
		cancel() // cancel mid-exploration, keep yielding
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || !rep.Interrupted {
		t.Fatal("cancellation must return the partial report with Interrupted set")
	}
	if len(partial) == 0 || len(rep.Findings) == 0 {
		t.Fatal("cancellation must preserve the partial findings")
	}
	if rep.States > 50_000 {
		t.Fatalf("cancellation was not prompt: %d states explored", rep.States)
	}
}

func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, symbolic := range []bool{false, true} {
		an := mustNew(t, spectre.WithBound(20), spectre.WithSymbolic(symbolic))
		rep, err := an.Run(ctx, v1Program(9))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("symbolic=%t: err = %v, want context.Canceled", symbolic, err)
		}
		if rep == nil || !rep.Interrupted || rep.States != 0 {
			t.Fatalf("symbolic=%t: pre-cancelled run must explore nothing, got %+v", symbolic, rep)
		}
	}
}

func TestRunProcedure(t *testing.T) {
	pr, err := mustNew(t).RunProcedure(context.Background(), v1Program(9))
	if err != nil {
		t.Fatal(err)
	}
	if pr.SecretFree() {
		t.Fatal("procedure must flag the v1 gadget")
	}
	if pr.Phase1 == nil || pr.Phase2 != nil {
		t.Fatal("a phase-1 hit must skip phase 2")
	}
	if pr.Phase1.Bound != spectre.BoundNoHazards {
		t.Fatalf("phase 1 bound = %d, want %d", pr.Phase1.Bound, spectre.BoundNoHazards)
	}

	fenced := spectre.NewProgramBuilder().
		Br(spectre.OpGt, []spectre.Operand{spectre.Imm(4), spectre.R(ra)}, 2, 5).
		Fence().
		Load(rb, spectre.Imm(0x40), spectre.R(ra)).
		Load(rc, spectre.Imm(0x44), spectre.R(rb)).
		Public(0x40, 1, 2, 3, 4).
		Public(0x44, 5, 6, 7, 8).
		Secret(0x48, 0xA0, 0xA1, 0xA2, 0xA3).
		SetReg(ra, 9).
		MustBuild()
	pr, err = mustNew(t).RunProcedure(context.Background(), fenced)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.SecretFree() {
		t.Fatalf("fenced gadget must pass both phases: %s / %s",
			pr.Phase1.Summary(), pr.Phase2.Summary())
	}
	if pr.Phase2.Bound != spectre.BoundWithHazards || !pr.Phase2.ForwardHazards {
		t.Fatal("phase 2 must run hazard-aware at the reduced bound")
	}

	// Figure 7's store-bypass gadget is clean in phase 1 and flagged
	// only with forwarding hazards: the paper's "f" in Table 2.
	fig7, ok := spectre.FigureByID("fig7")
	if !ok {
		t.Fatal("fig7 missing from the gallery")
	}
	pr, err = mustNew(t).RunProcedure(context.Background(), fig7.Program())
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Phase1.SecretFree || pr.Phase2 == nil {
		t.Fatalf("phase 1 must be clean for the v4 gadget and phase 2 must run: %s", pr.Phase1.Summary())
	}
	if pr.Phase2.SecretFree || pr.Phase2.Findings[0].Variant != "spectre-v4" {
		t.Fatalf("phase 2 must flag spectre-v4: %s", pr.Phase2.Summary())
	}
}

func TestCompileCTLAndSequential(t *testing.T) {
	const src = `
public size = 4;
public a1[4] = {1, 2, 3, 4};
secret key[8] = {160, 161, 162, 163, 164, 165, 166, 167};
public a2[64];
public x = 5;
public temp;
fn main() {
  if (x < size) {
    temp = temp & a2[a1[x] * 2];
  }
}
`
	prog, err := spectre.CompileCTL(src, spectre.ModeC)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := prog.Lookup("temp"); !ok {
		t.Fatal("global temp must be addressable")
	}
	if _, ok := prog.Lookup("main"); !ok {
		t.Fatal("function main must be addressable")
	}
	if !strings.Contains(prog.Disassemble(), "br(") {
		t.Fatal("ModeC must compile the guard to a branch")
	}
	seq, err := prog.Sequential(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.SecretFree() {
		t.Fatal("the guarded victim is sequentially constant-time")
	}
	rep := mustRun(t, mustNew(t, spectre.WithStopAtFirst(true)), prog)
	if rep.SecretFree {
		t.Fatal("the guarded victim must leak speculatively")
	}

	// The symbolic detector finds the same leak with x unconstrained.
	if !prog.SymbolicGlobal("x", "x") {
		t.Fatal("global x must be bindable")
	}
	if prog.SymbolicGlobal("nosuch", "y") {
		t.Fatal("binding a missing global must fail")
	}
	sym := mustRun(t, mustNew(t,
		spectre.WithSymbolic(true),
		spectre.WithStopAtFirst(true)), prog)
	if sym.SecretFree {
		t.Fatal("symbolic analysis must flag the victim")
	}

	if _, err := spectre.CompileCTL("fn main() { nonsense", spectre.ModeC); err == nil {
		t.Fatal("malformed CTL must be rejected")
	}
	if _, err := spectre.ParseSourceMode("weird"); err == nil {
		t.Fatal("unknown source mode must be rejected")
	}
}

func TestBuildDecouplesFromBuilder(t *testing.T) {
	pb := spectre.NewProgramBuilder().
		Br(spectre.OpGt, []spectre.Operand{spectre.Imm(4), spectre.R(ra)}, 2, 4).
		Load(rb, spectre.Imm(0x40), spectre.R(ra)).
		Load(rc, spectre.Imm(0x44), spectre.R(rb)).
		Public(0x40, 1, 2, 3, 4).
		Public(0x44, 5, 6, 7, 8).
		Secret(0x48, 0xA0, 0xA1, 0xA2, 0xA3).
		SetReg(ra, 9)
	vulnerable, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the builder afterwards must not retro-modify the
	// already-built program.
	pb.SetReg(ra, 1)
	rep := mustRun(t, mustNew(t, spectre.WithBound(20)), vulnerable)
	if rep.SecretFree {
		t.Fatal("built program must keep its own register seed (ra=9)")
	}
}

func TestBuilderValidation(t *testing.T) {
	// A br with wrong operand arity must fail validation.
	_, err := spectre.NewProgramBuilder().
		Br(spectre.OpGt, []spectre.Operand{spectre.Imm(1)}, 2, 2).
		Build()
	if err == nil {
		t.Fatal("malformed program must be rejected")
	}
}

func TestGalleryAndCache(t *testing.T) {
	gallery := spectre.Gallery()
	if len(gallery) == 0 {
		t.Fatal("gallery must not be empty")
	}
	fig, ok := spectre.FigureByID("fig1")
	if !ok {
		t.Fatal("fig1 must exist")
	}
	trace, err := fig.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if trace.SecretFree() != !fig.LeaksSecret {
		t.Fatal("fig1's trace must leak as advertised")
	}
	out, err := fig.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Directive") {
		t.Fatal("render must produce the directive table")
	}

	cache, err := spectre.NewCache(64, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	fr := spectre.FlushReload{Cache: cache, ProbeBase: 0x44, Stride: 1, Slots: 256}
	hot := fr.Recover(trace)
	want := 0xA1 // the planted Key[1]
	found := false
	for _, s := range hot {
		if s == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("flush+reload must recover %#x, got %v", want, hot)
	}
	if _, err := spectre.NewCache(0, 1, 1); err == nil {
		t.Fatal("invalid cache geometry must be rejected")
	}
}
