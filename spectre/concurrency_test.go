package spectre_test

import (
	"context"
	"sync"
	"testing"

	"pitchfork/spectre"
)

// TestAnalyzerSharedAcrossGoroutines runs one Analyzer from many
// goroutines at once — the reuse safety the type documents — so the
// race detector can certify it (satellite of the Explorer.stopped
// bugfix: stopping one exploration must not bleed into another).
func TestAnalyzerSharedAcrossGoroutines(t *testing.T) {
	an := mustNew(t, spectre.WithBound(20))
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Half the goroutines stream-and-stop, half run to the end:
			// interleaved early stops are what the old per-instance
			// stopped flag corrupted.
			if g%2 == 0 {
				rep, err := an.Stream(context.Background(), v1Program(9), func(spectre.Finding) bool { return false })
				if err != nil || !rep.Interrupted || len(rep.Findings) == 0 {
					errs <- "streamed run must stop with its finding"
				}
				return
			}
			rep, err := an.Run(context.Background(), v1Program(9))
			if err != nil {
				errs <- err.Error()
				return
			}
			if rep.SecretFree {
				errs <- "full run must flag the v1 gadget"
			}
			if rep.Interrupted {
				errs <- "a neighbouring stream's stop leaked into this run"
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestDedupReportStats checks the report surfaces the visited set's
// pruning: reconverged forwarding forks are pruned by default, and the
// v4 leak is still found. The comparison with the unpruned exploration
// (fewer states, same verdict, same findings) runs through the
// in-module off switch in the root package's
// TestDedupKeepsDecidedVerdicts.
func TestDedupReportStats(t *testing.T) {
	rep := mustRun(t, mustNew(t, spectre.WithBound(20)), v4Program())
	if rep.DedupHits == 0 {
		t.Fatal("the default run must prune reconverged forwarding forks")
	}
	if rep.SecretFree {
		t.Fatal("pruning lost the v4 leak")
	}
}

// TestProcedureInterruptedAccessor pins the three procedure outcomes
// apart: clean, flagged, and interrupted (the satellite fix — an
// interrupted procedure used to be indistinguishable from a flagged
// one through SecretFree alone).
func TestProcedureInterruptedAccessor(t *testing.T) {
	// Flagged: completed procedure, verdict reached.
	pr, err := mustNew(t).RunProcedure(context.Background(), v1Program(9))
	if err != nil {
		t.Fatal(err)
	}
	if pr.SecretFree() || pr.Interrupted() {
		t.Fatalf("flagged procedure: SecretFree=%t Interrupted=%t, want false/false", pr.SecretFree(), pr.Interrupted())
	}

	// Interrupted: cancelled before phase 1 could finish.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pr, _ = mustNew(t).RunProcedure(ctx, v1Program(9))
	if pr == nil {
		t.Fatal("cancelled procedure must still return the partial report")
	}
	if !pr.Interrupted() {
		t.Fatal("cancelled procedure must report Interrupted")
	}
	if pr.SecretFree() {
		t.Fatal("an interrupted procedure must never pass as clean")
	}

	// Clean: both phases complete on the fenced gadget.
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
	if !pr.SecretFree() || pr.Interrupted() {
		t.Fatalf("clean procedure: SecretFree=%t Interrupted=%t, want true/false", pr.SecretFree(), pr.Interrupted())
	}
}
