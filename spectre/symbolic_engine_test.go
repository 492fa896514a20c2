package spectre_test

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"pitchfork/internal/testcases"
	"pitchfork/spectre"
)

// figure1Symbolic is the Figure 1 gadget (Kocher case 1) with the
// attacker index x left unconstrained.
func figure1Symbolic(t *testing.T) *spectre.Program {
	t.Helper()
	p := compileCase(t, testcases.Kocher()[0])
	if !p.SymbolicGlobal("x", "x") {
		t.Fatal("no global x to unbind")
	}
	return p
}

// findingKey projects a finding onto the fields that are stable across
// dedup settings (schedule/trace prefixes of a
// deduplicated subtree depend on which reconverged twin survived).
func findingKey(f spectre.Finding) string {
	return fmt.Sprintf("%s|pc=%d|%s|%v|%v", f.Variant, f.PC, f.Observation, f.Sources, f.Witness)
}

func distinctKeys(rep *spectre.Report) []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range rep.Findings {
		k := findingKey(f)
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// TestSymbolicParallelDedup: a symbolic run prunes re-converged
// symbolic states, and runs made at once on one shared Analyzer, each
// of which keeps its own visited set, prune and find exactly what a
// lone run does. That the pruned run finds the distinct findings of
// the unpruned one is checked, Figure 1 included, by the root
// package's TestDedupKeepsDecidedVerdicts.
func TestSymbolicParallelDedup(t *testing.T) {
	p := figure1Symbolic(t)
	an := mustNew(t, spectre.WithSymbolic(true))
	lone := mustRun(t, an, p)
	var reps [4]*spectre.Report
	var wg sync.WaitGroup
	for k := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[k], _ = an.Run(context.Background(), p)
		}()
	}
	wg.Wait()
	for _, rep := range append(reps[:], lone) {
		if rep == nil {
			t.Fatal("concurrent run failed")
		}
		if rep.DedupHits == 0 || rep.DedupHits != lone.DedupHits || rep.States != lone.States {
			t.Fatalf("DedupHits %d / states %d, lone run %d / %d", rep.DedupHits, rep.States, lone.DedupHits, lone.States)
		}
		if rep.SecretFree {
			t.Fatal("symbolic dedup run lost the findings")
		}
		lk, ck := distinctKeys(lone), distinctKeys(rep)
		if fmt.Sprint(lk) != fmt.Sprint(ck) {
			t.Fatalf("distinct findings differ:\n lone       %v\n concurrent %v", lk, ck)
		}
	}
}

// TestSymbolicInterruptParallel: context cancellation reaches symbolic
// runs like concrete ones, including runs made at once on one shared
// Analyzer.
func TestSymbolicInterruptParallel(t *testing.T) {
	p := figure1Symbolic(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	an := mustNew(t, spectre.WithSymbolic(true))
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := an.Run(ctx, p)
			if err == nil {
				errs <- "cancelled run must return the context error"
			}
			if rep == nil || !rep.Interrupted {
				errs <- fmt.Sprintf("cancelled run must return a partial interrupted report, got %+v", rep)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
