// Determinism of the symbolic domain under the concurrency the engine
// supports: each analysis owns its solver, and every solver answer is a
// pure function of its query, so a symbolic analysis run while others
// run must reproduce a lone run exactly — same states, paths, violation
// list (schedules and witness models included) and solver counters.
// Runs under -race in CI alongside its concrete twin.
package pitchfork_test

import (
	"fmt"
	"sync"
	"testing"

	"pitchfork/internal/pitchfork"
	"pitchfork/internal/testcases"
)

// symViolationStrings renders violations with every deterministic
// field included.
func symViolationStrings(rep pitchfork.Report) []string {
	out := make([]string, len(rep.Violations))
	for i, v := range rep.Violations {
		out[i] = fmt.Sprintf("%s|pc=%d|src=%v|model=%v|%s", v.String(), v.PC, v.Sources, v.Model, v.Schedule)
	}
	return out
}

// sameSymbolicReport fails t unless b reproduces a exactly.
func sameSymbolicReport(t *testing.T, a, b pitchfork.Report) {
	t.Helper()
	if a.States != b.States || a.Paths != b.Paths {
		t.Fatalf("%d states / %d paths, then %d states / %d paths", a.States, a.Paths, b.States, b.Paths)
	}
	if *a.Solver != *b.Solver {
		t.Fatalf("solver counters differ: %+v, then %+v", *a.Solver, *b.Solver)
	}
	as, bs := symViolationStrings(a), symViolationStrings(b)
	if len(as) != len(bs) {
		t.Fatalf("violation counts differ: %d, then %d", len(as), len(bs))
	}
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("violation %d differs:\n %s\n %s", i, as[i], bs[i])
		}
	}
}

func TestSymbolicParallelMatchesSerialOnKocherSample(t *testing.T) {
	// A corpus sample with distinct shapes: the Figure 1 baseline, the
	// nested check, the safe-flag variant, and the compiled ternary.
	all := testcases.Kocher()
	opts := pitchfork.Options{Bound: 20, ForwardHazards: true}
	for _, idx := range []int{0, 1, 6, 7} {
		c := all[idx]
		t.Run(c.Name, func(t *testing.T) {
			sm, err := c.BuildSym()
			if err != nil {
				t.Fatal(err)
			}
			// Subtests run one by one up to t.Parallel, then together.
			serial, err := pitchfork.AnalyzeSymbolic(sm, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Parallel()
			par, err := pitchfork.AnalyzeSymbolic(sm, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameSymbolicReport(t, serial, par)
		})
	}
}

// TestSymbolicParallelIsReproducible: two analyses of one program run
// at once must agree with each other bit for bit.
func TestSymbolicParallelIsReproducible(t *testing.T) {
	c := testcases.Kocher()[0]
	var reps [2]pitchfork.Report
	var errs [2]error
	var wg sync.WaitGroup
	for k := range reps {
		sm, err := c.BuildSym()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[k], errs[k] = pitchfork.AnalyzeSymbolic(sm, pitchfork.Options{Bound: 20, ForwardHazards: true})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	sameSymbolicReport(t, reps[0], reps[1])
}
