// Bound monotonicity of the DT(n) strategy. The speculation bound only
// caps the reorder buffer, so every schedule legal at bound n is legal
// at every larger bound (the paper's §4, Thm. B.20): a program flagged
// at bound n must be flagged at every larger bound whose run is
// decided. These tests climb a ladder of bounds for every program of
// the corpus-wide property tests, with forwarding hazards off and on,
// at the default settings.
package pitchfork_test

import (
	"fmt"
	"testing"

	"pitchfork/internal/pitchfork"
)

// ladderBounds are the rungs of the bound ladder, up to the paper's
// bound without forwarding hazards.
var ladderBounds = []int{2, 3, 4, 5, 6, 8, 10, 15, 20, 30, 40, 60, 100, 150, 250}

// nonMonotoneRows runs every target of the domain at every rung, with
// forwarding hazards off and on, and returns the rows that break bound
// monotonicity, as "program/domain/fwd=…/b…": a decided clean run at a
// bound above one where the same program was flagged. It also returns
// how many runs it made.
func nonMonotoneRows(t *testing.T, domain string) (rows []string, runs int) {
	t.Helper()
	for _, tg := range analysisTargets(domain) {
		for _, fwd := range []bool{false, true} {
			flaggedAt := 0
			for _, bound := range ladderBounds {
				rep, err := tg.analyze(pitchfork.Options{Bound: bound, ForwardHazards: fwd, StopAtFirst: true})
				if err != nil {
					t.Fatalf("%s fwd=%t bound=%d: %v", tg.name, fwd, bound, err)
				}
				runs++
				switch {
				case !rep.SecretFree():
					if flaggedAt == 0 {
						flaggedAt = bound
					}
				case !rep.Truncated && flaggedAt > 0:
					rows = append(rows, fmt.Sprintf("%s/fwd=%t/b%d", tg.name, fwd, bound))
				}
			}
		}
	}
	return rows, runs
}

// TestBoundLadder: no program breaks bound monotonicity, in either
// domain. The symbolic ladder used to read v11_01 and v11_02 clean at
// bound 10 only, with forwarding hazards off: the symbolic machine
// pinned a store's symbolic address to a younger load's only if that
// load was already in the reorder buffer, and at bound 10 the buffer
// is full when the store resolves (see symMachine.concretize).
func TestBoundLadder(t *testing.T) {
	for _, domain := range []string{"concrete", "symbolic"} {
		t.Run(domain, func(t *testing.T) {
			rows, runs := nonMonotoneRows(t, domain)
			t.Logf("%d runs, %d non-monotone rows", runs, len(rows))
			if len(rows) > 0 {
				t.Fatalf("flagged at a smaller bound, clean at a larger decided one: %v", rows)
			}
		})
	}
}
