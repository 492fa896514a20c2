// Differential test for fingerprint dedup: pruning a state whose
// configuration was already visited may cut paths, but it must never
// change a decided verdict. Whenever neither the pruned nor the
// unpruned exploration hits its state budget, both must agree on
// whether the program leaks.
package pitchfork_test

import (
	"testing"

	"pitchfork/internal/attacks"
	"pitchfork/internal/pitchfork"
	"pitchfork/internal/testcases"
)

// TestDedupKeepsDecidedVerdicts runs the Kocher, spec-only v1 and v1.1
// corpora in both domains, and every gallery figure in the concrete
// domain, with forwarding hazards off and on at bound 20, once without
// dedup and once with a 1<<20-entry table.
func TestDedupKeepsDecidedVerdicts(t *testing.T) {
	type target struct {
		name    string
		analyze func(pitchfork.Options) (pitchfork.Report, error)
	}
	var targets []target
	for _, a := range attacks.Gallery() {
		targets = append(targets, target{a.ID + "/concrete", func(o pitchfork.Options) (pitchfork.Report, error) {
			return pitchfork.Analyze(a.New(), o)
		}})
	}
	for _, corpus := range [][]testcases.Case{testcases.Kocher(), testcases.SpecOnlyV1(), testcases.V11()} {
		for _, c := range corpus {
			targets = append(targets, target{c.Name + "/concrete", func(o pitchfork.Options) (pitchfork.Report, error) {
				m, err := c.Build()
				if err != nil {
					return pitchfork.Report{}, err
				}
				return pitchfork.Analyze(m, o)
			}}, target{c.Name + "/symbolic", func(o pitchfork.Options) (pitchfork.Report, error) {
				sm, err := c.BuildSym()
				if err != nil {
					return pitchfork.Report{}, err
				}
				return pitchfork.AnalyzeSymbolic(sm, o)
			}})
		}
	}

	compared, truncated, leaks := 0, 0, 0
	for _, tg := range targets {
		for _, fwd := range []bool{false, true} {
			var reps [2]pitchfork.Report
			for k, entries := range []int{0, 1 << 20} {
				rep, err := tg.analyze(pitchfork.Options{Bound: 20, ForwardHazards: fwd, DedupEntries: entries})
				if err != nil {
					t.Fatalf("%s fwd=%t dedup=%d: %v", tg.name, fwd, entries, err)
				}
				reps[k] = rep
			}
			if reps[0].Truncated || reps[1].Truncated {
				truncated++
				continue
			}
			compared++
			if !reps[0].SecretFree() {
				leaks++
			}
			if reps[0].SecretFree() != reps[1].SecretFree() {
				t.Errorf("%s fwd=%t: secret-free %t without dedup (%d paths), %t with it (%d paths)",
					tg.name, fwd, reps[0].SecretFree(), reps[0].Paths, reps[1].SecretFree(), reps[1].Paths)
			}
		}
	}
	t.Logf("%d decided pairs compared (%d leak), %d skipped as truncated", compared, leaks, truncated)
	if leaks == 0 || leaks == compared {
		t.Fatalf("the %d decided pairs must include both verdicts, got %d leaking", compared, leaks)
	}
}
