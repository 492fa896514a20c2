package pitchfork_test

import (
	"runtime"
	"testing"

	"pitchfork/internal/pitchfork"
	"pitchfork/internal/testcases"
)

// TestSymbolicAllocsPerState bounds heap allocations per explored state
// in the symbolic domain, over the two corpus programs whose symbolic
// runs exhaust the state budget (kocher03 and v11_01), at the shipped
// bound with forwarding hazards. The budget is fixed so the state count
// is pinned; a regression in the per-state work (a transient, operand
// list or expression allocated per step) shows up here before it shows
// up in the corpus sweep's time.
func TestSymbolicAllocsPerState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const budget = 50_000
	var machines []*pitchfork.SymMachine
	for _, c := range []testcases.Case{testcases.Kocher()[2], testcases.V11()[0]} {
		sm, err := c.BuildSym()
		if err != nil {
			t.Fatal(err)
		}
		machines = append(machines, sm)
	}
	opts := pitchfork.Options{Bound: pitchfork.BoundWithHazards, ForwardHazards: true, MaxStates: budget}
	var before, after runtime.MemStats
	states := 0
	runtime.ReadMemStats(&before)
	for _, sm := range machines {
		rep, err := pitchfork.AnalyzeSymbolic(sm, opts)
		if err != nil {
			t.Fatal(err)
		}
		states += rep.States
	}
	runtime.ReadMemStats(&after)
	if states != len(machines)*budget {
		t.Fatalf("explored %d states, want the pinned %d", states, len(machines)*budget)
	}
	perState := float64(after.Mallocs-before.Mallocs) / float64(states)
	t.Logf("%.3f allocations per explored state", perState)
	if perState > 2.9 {
		t.Fatalf("%.3f allocations per explored state, want at most 2.9", perState)
	}
}
