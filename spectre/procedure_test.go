package spectre

import (
	"context"
	"testing"

	"pitchfork/internal/core"
	"pitchfork/internal/crypto"
	"pitchfork/internal/ct"
	"pitchfork/internal/pitchfork"
)

// TestRunProcedureMatchesAnalyzeProcedure pins the module's two §4.2.1
// procedures together: on every Table 2 build, Analyzer.RunProcedure
// and pitchfork.AnalyzeProcedure, both stopping at the first finding,
// run the same phases and agree phase by phase on the verdict, the
// explored states and paths, truncation, and the first finding's
// variant and program point.
func TestRunProcedureMatchesAnalyzeProcedure(t *testing.T) {
	an, err := New(WithStopAtFirst(true))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range crypto.Cases() {
		for _, mode := range []ct.Mode{ct.ModeC, ct.ModeFaCT} {
			name := c.Name + "/" + mode.String()
			comp, err := c.Build(mode)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := an.RunProcedure(context.Background(), &Program{prog: comp.Prog})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			mk := func() *core.Machine { return core.New(comp.Prog) }
			p1, p2, err := pitchfork.AnalyzeProcedure(mk, pitchfork.Options{StopAtFirst: true})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			samePhase(t, name+" phase 1", pr.Phase1, p1)
			if ran := p2.Mode != ""; (pr.Phase2 != nil) != ran {
				t.Fatalf("%s: phase 2 ran in RunProcedure %t, in AnalyzeProcedure %t", name, pr.Phase2 != nil, ran)
			}
			if pr.Phase2 != nil {
				samePhase(t, name+" phase 2", pr.Phase2, p2)
			}
		}
	}
}

func samePhase(t *testing.T, name string, got *Report, want pitchfork.Report) {
	t.Helper()
	if got.SecretFree != want.SecretFree() || got.States != want.States ||
		got.Paths != want.Paths || got.Truncated != want.Truncated {
		t.Errorf("%s: RunProcedure secretFree=%t states=%d paths=%d truncated=%t, AnalyzeProcedure %s (truncated=%t)",
			name, got.SecretFree, got.States, got.Paths, got.Truncated, want.Summary(), want.Truncated)
	}
	if got.SecretFree || want.SecretFree() {
		return
	}
	g, w := got.Findings[0], want.Violations[0]
	if g.Variant != w.Kind.String() || g.PC != w.PC {
		t.Errorf("%s: first finding %s at pc %d, AnalyzeProcedure %s at pc %d",
			name, g.Variant, g.PC, w.Kind, w.PC)
	}
}
