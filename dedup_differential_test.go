// Differential test for fingerprint dedup: pruning a state whose
// configuration was already visited may cut paths, but it must never
// change a decided verdict or the findings. Whenever neither the
// pruned nor the unpruned exploration hits its state budget, both
// must agree on whether the program leaks and on the distinct
// (variant, program point) pairs it leaks at.
package pitchfork_test

import (
	"fmt"
	"sort"
	"testing"

	"pitchfork/internal/attacks"
	"pitchfork/internal/pitchfork"
	"pitchfork/internal/testcases"
)

// dedupBoundPins lowers the bound for the pairs whose run with the
// visited set off exhausts the default state budget at bound 20. Each
// pin is the largest bound at which that run still decides.
var dedupBoundPins = map[string]int{
	"kocher03/concrete fwd=false":  11,
	"kocher03/concrete fwd=true":   8,
	"specv1_02/concrete fwd=false": 9,
	"specv1_02/concrete fwd=true":  4,
	"kocher03/symbolic fwd=false":  5,
	"kocher03/symbolic fwd=true":   5,
	"specv1_02/symbolic fwd=false": 9,
	"specv1_02/symbolic fwd=true":  4,
	"v11_01/symbolic fwd=true":     13,
}

// TestDedupKeepsDecidedVerdicts runs the Kocher, spec-only v1 and v1.1
// corpora in both domains, and every gallery figure in the concrete
// domain, with forwarding hazards off and on at bound 20 (or the
// pair's dedupBoundPins bound), once with the visited set switched off
// and once at the default. Every pair must decide.
func TestDedupKeepsDecidedVerdicts(t *testing.T) {
	targets := append(analysisTargets("concrete"), analysisTargets("symbolic")...)

	compared, pinned, leaks, shrunk := 0, 0, 0, 0
	for _, tg := range targets {
		for _, fwd := range []bool{false, true} {
			pair := fmt.Sprintf("%s fwd=%t", tg.name, fwd)
			bound, ok := dedupBoundPins[pair]
			if ok {
				pinned++
			} else {
				bound = 20
			}
			var reps [2]pitchfork.Report
			for k, off := range []bool{true, false} {
				rep, err := tg.analyze(pitchfork.Options{Bound: bound, ForwardHazards: fwd, NoDedup: off})
				if err != nil {
					t.Fatalf("%s bound %d dedup off=%t: %v", pair, bound, off, err)
				}
				reps[k] = rep
			}
			if reps[0].Truncated || reps[1].Truncated {
				t.Errorf("%s bound %d: truncated without dedup %t, with it %t; every pair must decide",
					pair, bound, reps[0].Truncated, reps[1].Truncated)
				continue
			}
			compared++
			if !reps[0].SecretFree() {
				leaks++
			}
			if reps[0].SecretFree() != reps[1].SecretFree() {
				t.Errorf("%s: secret-free %t without dedup (%d paths), %t with it (%d paths)",
					pair, reps[0].SecretFree(), reps[0].Paths, reps[1].SecretFree(), reps[1].Paths)
			}
			if off, on := distinctFindings(reps[0]), distinctFindings(reps[1]); off != on {
				t.Errorf("%s: distinct findings differ\n without dedup %s\n with it       %s", pair, off, on)
			}
			if reps[0].DedupHits != 0 {
				t.Errorf("%s: the visited set is off but pruned %d states", pair, reps[0].DedupHits)
			}
			if reps[1].States > reps[0].States {
				t.Errorf("%s: pruning grew the exploration from %d to %d states", pair, reps[0].States, reps[1].States)
			}
			if reps[1].States < reps[0].States {
				shrunk++
			}
		}
	}
	t.Logf("%d decided pairs compared (%d leak, %d pruned smaller, %d at a pinned bound)", compared, leaks, shrunk, pinned)
	if pinned != len(dedupBoundPins) {
		t.Errorf("%d of the %d bound pins name no pair", len(dedupBoundPins)-pinned, len(dedupBoundPins))
	}
	if leaks == 0 || leaks == compared {
		t.Fatalf("the %d decided pairs must include both verdicts, got %d leaking", compared, leaks)
	}
	if shrunk == 0 {
		t.Fatalf("the visited set pruned none of the %d decided pairs", compared)
	}
}

// distinctFindings renders the sorted set of distinct (variant, program
// point) pairs a report leaks at. Schedules, traces and witnesses are
// left out: which of two reconverged twins survives the visited set
// decides those, not whether the leak is found.
func distinctFindings(rep pitchfork.Report) string {
	seen := make(map[string]bool)
	var keys []string
	for _, v := range rep.Violations {
		k := fmt.Sprintf("%s@%d", v.Kind, v.PC)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return fmt.Sprint(keys)
}

// target is one program in one domain: analyze runs it under the given
// options.
type target struct {
	name    string
	analyze func(pitchfork.Options) (pitchfork.Report, error)
}

// analysisTargets lists the programs the corpus-wide property tests
// run in a domain: every gallery figure in the concrete domain, and the
// Kocher, spec-only v1 and v1.1 corpora in either domain (x unbound as
// a solver variable in the symbolic one). Names are "program/domain".
func analysisTargets(domain string) []target {
	var targets []target
	if domain == "concrete" {
		for _, a := range attacks.Gallery() {
			targets = append(targets, target{a.ID + "/concrete", func(o pitchfork.Options) (pitchfork.Report, error) {
				return pitchfork.Analyze(a.New(), o)
			}})
		}
	}
	for _, corpus := range [][]testcases.Case{testcases.Kocher(), testcases.SpecOnlyV1(), testcases.V11()} {
		for _, c := range corpus {
			if domain == "concrete" {
				targets = append(targets, target{c.Name + "/concrete", func(o pitchfork.Options) (pitchfork.Report, error) {
					m, err := c.Build()
					if err != nil {
						return pitchfork.Report{}, err
					}
					return pitchfork.Analyze(m, o)
				}})
				continue
			}
			targets = append(targets, target{c.Name + "/symbolic", func(o pitchfork.Options) (pitchfork.Report, error) {
				sm, err := c.BuildSym()
				if err != nil {
					return pitchfork.Report{}, err
				}
				return pitchfork.AnalyzeSymbolic(sm, o)
			}})
		}
	}
	return targets
}
