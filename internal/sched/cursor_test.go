package sched_test

import (
	"sync/atomic"
	"testing"

	"pitchfork/internal/attacks"
	"pitchfork/internal/core"
	"pitchfork/internal/pitchfork"
	"pitchfork/internal/sched"
	"pitchfork/internal/symx"
	"pitchfork/internal/testcases"
)

// cursorPin is one exploration's counts: States, Paths, the length of
// the first reported violation's schedule (0 when clean), and whether
// the state budget was hit.
type cursorPin struct {
	states, paths, schedLen int
	truncated               bool
}

// cursorPins holds the counts of every run of TestCursorInvariant, as
// explored by the head-scanning strategy before the settled-prefix
// cursor existed, keyed by program, domain and phase, for Workers 1
// and 2. A truncated parallel run pins only its truncation: which
// states it reached before the stop propagated is timing-dependent.
var cursorPins = map[string][2]cursorPin{
	"fig1/concrete/b250":        {{9, 2, 5, false}, {9, 2, 5, false}},
	"fig1/concrete/b20fwd":      {{9, 2, 5, false}, {9, 2, 5, false}},
	"fig1/symbolic/b250":        {{9, 2, 5, false}, {9, 2, 5, false}},
	"fig1/symbolic/b20fwd":      {{9, 2, 5, false}, {9, 2, 5, false}},
	"fig2/concrete/b250":        {{26, 1, 0, false}, {26, 1, 0, false}},
	"fig2/concrete/b20fwd":      {{47, 3, 0, false}, {47, 3, 0, false}},
	"fig2/symbolic/b250":        {{26, 1, 0, false}, {26, 1, 0, false}},
	"fig2/symbolic/b20fwd":      {{47, 3, 0, false}, {47, 3, 0, false}},
	"fig4/concrete/b250":        {{30, 2, 0, false}, {30, 2, 0, false}},
	"fig4/concrete/b20fwd":      {{30, 2, 0, false}, {30, 2, 0, false}},
	"fig4/symbolic/b250":        {{30, 2, 0, false}, {30, 2, 0, false}},
	"fig4/symbolic/b20fwd":      {{30, 2, 0, false}, {30, 2, 0, false}},
	"fig5/concrete/b250":        {{13, 1, 0, false}, {13, 1, 0, false}},
	"fig5/concrete/b20fwd":      {{50, 6, 0, false}, {50, 6, 0, false}},
	"fig5/symbolic/b250":        {{13, 1, 0, false}, {13, 1, 0, false}},
	"fig5/symbolic/b20fwd":      {{50, 6, 0, false}, {50, 6, 0, false}},
	"fig6/concrete/b250":        {{20, 2, 16, false}, {20, 2, 16, false}},
	"fig6/concrete/b20fwd":      {{29, 4, 16, false}, {29, 4, 19, false}},
	"fig6/symbolic/b250":        {{20, 2, 16, false}, {20, 2, 16, false}},
	"fig6/symbolic/b20fwd":      {{29, 4, 16, false}, {29, 4, 19, false}},
	"fig7/concrete/b250":        {{13, 1, 0, false}, {13, 1, 0, false}},
	"fig7/concrete/b20fwd":      {{24, 3, 7, false}, {24, 3, 7, false}},
	"fig7/symbolic/b250":        {{13, 1, 0, false}, {13, 1, 0, false}},
	"fig7/symbolic/b20fwd":      {{24, 3, 7, false}, {24, 3, 7, false}},
	"fig8/concrete/b250":        {{10, 2, 0, false}, {10, 2, 0, false}},
	"fig8/concrete/b20fwd":      {{10, 2, 0, false}, {10, 2, 0, false}},
	"fig8/symbolic/b250":        {{10, 2, 0, false}, {10, 2, 0, false}},
	"fig8/symbolic/b20fwd":      {{10, 2, 0, false}, {10, 2, 0, false}},
	"fig11/concrete/b250":       {{9, 1, 0, false}, {9, 1, 0, false}},
	"fig11/concrete/b20fwd":     {{9, 1, 0, false}, {9, 1, 0, false}},
	"fig11/symbolic/b250":       {{9, 1, 0, false}, {9, 1, 0, false}},
	"fig11/symbolic/b20fwd":     {{9, 1, 0, false}, {9, 1, 0, false}},
	"fig12/concrete/b250":       {{15, 1, 0, false}, {15, 1, 0, false}},
	"fig12/concrete/b20fwd":     {{29, 2, 0, false}, {29, 2, 0, false}},
	"fig12/symbolic/b250":       {{15, 1, 0, false}, {15, 1, 0, false}},
	"fig12/symbolic/b20fwd":     {{29, 2, 0, false}, {29, 2, 0, false}},
	"fig13/concrete/b250":       {{262, 1, 0, false}, {262, 1, 0, false}},
	"fig13/concrete/b20fwd":     {{138, 6, 0, false}, {138, 6, 0, false}},
	"fig13/symbolic/b250":       {{262, 1, 0, false}, {262, 1, 0, false}},
	"fig13/symbolic/b20fwd":     {{138, 6, 0, false}, {138, 6, 0, false}},
	"kocher01/concrete/b250":    {{45, 2, 25, false}, {45, 2, 25, false}},
	"kocher01/concrete/b20fwd":  {{122, 11, 25, false}, {122, 11, 24, false}},
	"kocher01/symbolic/b250":    {{74, 3, 25, false}, {74, 3, 25, false}},
	"kocher01/symbolic/b20fwd":  {{290, 19, 25, false}, {290, 19, 24, false}},
	"kocher02/concrete/b250":    {{67, 3, 24, false}, {67, 3, 24, false}},
	"kocher02/concrete/b20fwd":  {{207, 19, 24, false}, {207, 19, 23, false}},
	"kocher02/symbolic/b250":    {{149, 5, 24, false}, {149, 5, 24, false}},
	"kocher02/symbolic/b20fwd":  {{659, 35, 24, false}, {659, 35, 23, false}},
	"kocher03/concrete/b250":    {{20000, 82, 437, true}, {0, 0, 0, true}},
	"kocher03/concrete/b20fwd":  {{8012, 231, 57, false}, {8012, 231, 61, false}},
	"kocher03/symbolic/b250":    {{20000, 126, 0, true}, {0, 0, 0, true}},
	"kocher03/symbolic/b20fwd":  {{20000, 609, 0, true}, {0, 0, 0, true}},
	"kocher04/concrete/b250":    {{21, 1, 20, false}, {21, 1, 20, false}},
	"kocher04/concrete/b20fwd":  {{39, 5, 20, false}, {39, 5, 19, false}},
	"kocher04/symbolic/b250":    {{21, 1, 20, false}, {21, 1, 20, false}},
	"kocher04/symbolic/b20fwd":  {{39, 5, 20, false}, {39, 5, 19, false}},
	"kocher05/concrete/b250":    {{53, 2, 29, false}, {53, 2, 29, false}},
	"kocher05/concrete/b20fwd":  {{170, 13, 29, false}, {170, 13, 28, false}},
	"kocher05/symbolic/b250":    {{82, 3, 29, false}, {82, 3, 29, false}},
	"kocher05/symbolic/b20fwd":  {{380, 23, 29, false}, {380, 23, 28, false}},
	"kocher06/concrete/b250":    {{86, 3, 25, false}, {86, 3, 25, false}},
	"kocher06/concrete/b20fwd":  {{537, 31, 25, false}, {537, 31, 24, false}},
	"kocher06/symbolic/b250":    {{144, 5, 25, false}, {144, 5, 25, false}},
	"kocher06/symbolic/b20fwd":  {{1545, 79, 25, false}, {1545, 79, 24, false}},
	"kocher07/concrete/b250":    {{49, 2, 27, false}, {49, 2, 27, false}},
	"kocher07/concrete/b20fwd":  {{133, 11, 27, false}, {133, 11, 26, false}},
	"kocher07/symbolic/b250":    {{78, 3, 27, false}, {78, 3, 27, false}},
	"kocher07/symbolic/b20fwd":  {{301, 19, 27, false}, {301, 19, 26, false}},
	"kocher08/concrete/b250":    {{70, 2, 29, false}, {70, 2, 29, false}},
	"kocher08/concrete/b20fwd":  {{433, 23, 29, false}, {433, 23, 28, false}},
	"kocher08/symbolic/b250":    {{102, 3, 29, false}, {102, 3, 29, false}},
	"kocher08/symbolic/b20fwd":  {{1169, 55, 29, false}, {1169, 55, 28, false}},
	"kocher09/concrete/b250":    {{65, 2, 35, false}, {65, 2, 35, false}},
	"kocher09/concrete/b20fwd":  {{209, 13, 34, false}, {209, 13, 33, false}},
	"kocher09/symbolic/b250":    {{94, 3, 35, false}, {94, 3, 35, false}},
	"kocher09/symbolic/b20fwd":  {{419, 23, 34, false}, {419, 23, 33, false}},
	"kocher10/concrete/b250":    {{68, 3, 24, false}, {68, 3, 24, false}},
	"kocher10/concrete/b20fwd":  {{269, 27, 24, false}, {269, 27, 23, false}},
	"kocher10/symbolic/b250":    {{115, 5, 24, false}, {115, 5, 24, false}},
	"kocher10/symbolic/b20fwd":  {{513, 39, 24, false}, {513, 39, 23, false}},
	"kocher11/concrete/b250":    {{53, 2, 33, false}, {53, 2, 33, false}},
	"kocher11/concrete/b20fwd":  {{151, 19, 29, false}, {151, 19, 27, false}},
	"kocher11/symbolic/b250":    {{100, 3, 33, false}, {100, 3, 33, false}},
	"kocher11/symbolic/b20fwd":  {{735, 43, 29, false}, {735, 43, 27, false}},
	"kocher12/concrete/b250":    {{51, 2, 27, false}, {51, 2, 27, false}},
	"kocher12/concrete/b20fwd":  {{130, 10, 27, false}, {130, 10, 26, false}},
	"kocher12/symbolic/b250":    {{77, 3, 27, false}, {77, 3, 27, false}},
	"kocher12/symbolic/b20fwd":  {{282, 18, 27, false}, {282, 18, 26, false}},
	"kocher13/concrete/b250":    {{52, 2, 32, false}, {52, 2, 32, false}},
	"kocher13/concrete/b20fwd":  {{126, 9, 32, false}, {126, 9, 36, false}},
	"kocher13/symbolic/b250":    {{55, 3, 32, false}, {55, 3, 32, false}},
	"kocher13/symbolic/b20fwd":  {{134, 12, 32, false}, {134, 12, 36, false}},
	"kocher14/concrete/b250":    {{44, 2, 24, false}, {44, 2, 24, false}},
	"kocher14/concrete/b20fwd":  {{236, 19, 24, false}, {236, 19, 29, false}},
	"kocher14/symbolic/b250":    {{67, 3, 24, false}, {67, 3, 24, false}},
	"kocher14/symbolic/b20fwd":  {{372, 27, 24, false}, {372, 27, 29, false}},
	"kocher15/concrete/b250":    {{47, 2, 27, false}, {47, 2, 27, false}},
	"kocher15/concrete/b20fwd":  {{124, 11, 27, false}, {124, 11, 26, false}},
	"kocher15/symbolic/b250":    {{82, 3, 27, false}, {82, 3, 27, false}},
	"kocher15/symbolic/b20fwd":  {{324, 19, 27, false}, {324, 19, 26, false}},
	"specv1_01/concrete/b250":   {{45, 2, 25, false}, {45, 2, 25, false}},
	"specv1_01/concrete/b20fwd": {{122, 11, 25, false}, {122, 11, 24, false}},
	"specv1_01/symbolic/b250":   {{74, 3, 25, false}, {74, 3, 25, false}},
	"specv1_01/symbolic/b20fwd": {{290, 19, 25, false}, {290, 19, 24, false}},
	"specv1_02/concrete/b250":   {{20000, 877, 146, true}, {0, 0, 0, true}},
	"specv1_02/concrete/b20fwd": {{20000, 604, 0, true}, {0, 0, 0, true}},
	"specv1_02/symbolic/b250":   {{20000, 877, 146, true}, {0, 0, 0, true}},
	"specv1_02/symbolic/b20fwd": {{20000, 604, 0, true}, {0, 0, 0, true}},
	"specv1_03/concrete/b250":   {{51, 2, 29, false}, {51, 2, 29, false}},
	"specv1_03/concrete/b20fwd": {{137, 11, 29, false}, {137, 11, 28, false}},
	"specv1_03/symbolic/b250":   {{83, 3, 29, false}, {83, 3, 29, false}},
	"specv1_03/symbolic/b20fwd": {{321, 19, 29, false}, {321, 19, 28, false}},
	"specv1_04/concrete/b250":   {{77, 3, 35, false}, {77, 3, 35, false}},
	"specv1_04/concrete/b20fwd": {{265, 21, 35, false}, {265, 21, 34, false}},
	"specv1_04/symbolic/b250":   {{166, 7, 35, false}, {166, 7, 35, false}},
	"specv1_04/symbolic/b20fwd": {{741, 46, 35, false}, {741, 46, 34, false}},
	"specv1_05/concrete/b250":   {{51, 2, 31, false}, {51, 2, 31, false}},
	"specv1_05/concrete/b20fwd": {{139, 11, 31, false}, {139, 11, 30, false}},
	"specv1_05/symbolic/b250":   {{89, 3, 31, false}, {89, 3, 31, false}},
	"specv1_05/symbolic/b20fwd": {{355, 19, 31, false}, {355, 19, 30, false}},
	"specv1_06/concrete/b250":   {{50, 2, 30, false}, {50, 2, 30, false}},
	"specv1_06/concrete/b20fwd": {{137, 17, 27, false}, {137, 17, 25, false}},
	"specv1_06/symbolic/b250":   {{91, 3, 30, false}, {91, 3, 30, false}},
	"specv1_06/symbolic/b20fwd": {{657, 41, 27, false}, {657, 41, 25, false}},
	"v11_01/concrete/b250":      {{68, 2, 28, false}, {68, 2, 28, false}},
	"v11_01/concrete/b20fwd":    {{20000, 1175, 28, true}, {0, 0, 0, true}},
	"v11_01/symbolic/b250":      {{105, 3, 28, false}, {105, 3, 28, false}},
	"v11_01/symbolic/b20fwd":    {{20000, 1093, 0, true}, {0, 0, 0, true}},
	"v11_02/concrete/b250":      {{65, 2, 29, false}, {65, 2, 29, false}},
	"v11_02/concrete/b20fwd":    {{1497, 91, 29, false}, {1497, 91, 45, false}},
	"v11_02/symbolic/b250":      {{98, 3, 29, false}, {98, 3, 29, false}},
	"v11_02/symbolic/b20fwd":    {{4601, 275, 29, false}, {4601, 275, 38, false}},
	"v11_03/concrete/b250":      {{38, 1, 0, false}, {38, 1, 0, false}},
	"v11_03/concrete/b20fwd":    {{582, 34, 20, false}, {582, 34, 19, false}},
	"v11_03/symbolic/b250":      {{38, 1, 0, false}, {38, 1, 0, false}},
	"v11_03/symbolic/b20fwd":    {{288, 23, 21, false}, {288, 23, 19, false}},
	"v11_04/concrete/b250":      {{53, 1, 0, false}, {53, 1, 0, false}},
	"v11_04/concrete/b20fwd":    {{1847, 93, 29, false}, {1847, 93, 45, false}},
	"v11_04/symbolic/b250":      {{36, 1, 0, false}, {36, 1, 0, false}},
	"v11_04/symbolic/b20fwd":    {{718, 56, 30, false}, {718, 56, 45, false}},
}

// TestCursorInvariant runs the figure gallery and the Kocher,
// spec-only v1 and v1.1 corpora in both domains, serially and on two
// workers, in both phases of the paper's procedure (bound 250 without
// forwarding hazards, bound 20 with them). In every state executePhase
// scans, each index below the settled-prefix cursor must be settled —
// resolved and not a fence, or a pending branch — and the branch hint
// must be the lowest pending branch there. The exploration counts must
// match the pins, so the cursor changes no decision.
func TestCursorInvariant(t *testing.T) {
	var checked, failures atomic.Int64
	defer sched.SetCursorCheck(func(m sched.Machine, settled, branch int) {
		checked.Add(1)
		fail := func(format string, args ...any) {
			if failures.Add(1) <= 10 {
				t.Errorf(format, args...)
			}
		}
		if settled < m.BufMin() || settled > m.BufMax()+1 {
			fail("cursor %d outside [%d, %d]", settled, m.BufMin(), m.BufMax()+1)
			return
		}
		lowest := 0
		for i := m.BufMin(); i < settled; i++ {
			v, _ := m.View(i)
			if v.Kind != core.TBr && (!v.Resolved || v.Kind == core.TFence) {
				fail("index %d below cursor %d is unsettled: %+v", i, settled, v)
			}
			if v.Kind == core.TBr && lowest == 0 {
				lowest = i
			}
		}
		if branch != lowest {
			fail("branch hint %d, lowest pending branch below cursor %d is %d", branch, settled, lowest)
		}
	})()

	type program struct {
		name     string
		concrete func() *core.Machine
		symbolic func() *pitchfork.SymMachine
	}
	var progs []program
	for _, a := range attacks.Gallery() {
		progs = append(progs, program{a.ID, a.New, func() *pitchfork.SymMachine {
			// The figure's machine with every register a constant.
			m := a.New()
			sm := pitchfork.NewSym(m.Prog)
			for _, r := range m.Regs.Registers() {
				sm.SetReg(r, symx.C(m.Regs.Read(r)))
			}
			return sm
		}})
	}
	corpus := append(append(testcases.Kocher(), testcases.SpecOnlyV1()...), testcases.V11()...)
	for _, c := range corpus {
		progs = append(progs, program{c.Name, func() *core.Machine {
			m, err := c.Build()
			if err != nil {
				t.Fatal(err)
			}
			return m
		}, func() *pitchfork.SymMachine {
			sm, err := c.BuildSym()
			if err != nil {
				t.Fatal(err)
			}
			return sm
		}})
	}
	phases := []struct {
		name  string
		bound int
		fwd   bool
	}{{"b250", pitchfork.BoundNoHazards, false}, {"b20fwd", pitchfork.BoundWithHazards, true}}

	runs := 0
	for _, p := range progs {
		for _, domain := range []string{"concrete", "symbolic"} {
			for _, ph := range phases {
				key := p.name + "/" + domain + "/" + ph.name
				want, ok := cursorPins[key]
				if !ok {
					t.Errorf("%s: no pin", key)
					continue
				}
				for w := 1; w <= 2; w++ {
					opts := pitchfork.Options{Bound: ph.bound, ForwardHazards: ph.fwd, Workers: w, MaxStates: 20_000}
					var rep pitchfork.Report
					var err error
					if domain == "concrete" {
						rep, err = pitchfork.Analyze(p.concrete(), opts)
					} else {
						rep, err = pitchfork.AnalyzeSymbolic(p.symbolic(), opts)
					}
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					runs++
					got := cursorPin{states: rep.States, paths: rep.Paths, truncated: rep.Truncated}
					if len(rep.Violations) > 0 {
						got.schedLen = len(rep.Violations[0].Schedule)
					}
					pin := want[w-1]
					if w > 1 && pin.truncated {
						got = cursorPin{truncated: rep.Truncated}
					}
					if got != pin {
						t.Errorf("%s workers=%d: got %+v, want %+v", key, w, got, pin)
					}
				}
			}
		}
	}
	if runs != 2*len(cursorPins) {
		t.Errorf("%d runs, want 2 for each of the %d pins", runs, len(cursorPins))
	}
	if checked.Load() == 0 {
		t.Fatal("the cursor check never ran")
	}
	t.Logf("%d runs, cursor checked in %d states", runs, checked.Load())
}
