package sched_test

import (
	"slices"
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

// cursorPins holds the counts of every run of TestCursorInvariant at
// the default settings (visited set on, window-sliding arm in the
// strategy), keyed by program, domain and phase. The counts from
// before the arm were those of the head-scanning strategy that
// preceded the cursor; these were re-pinned when the arm landed.
var cursorPins = map[string]cursorPin{
	"fig1/concrete/b250":        {9, 2, 5, false},
	"fig1/concrete/b20fwd":      {9, 2, 5, false},
	"fig1/symbolic/b250":        {9, 2, 5, false},
	"fig1/symbolic/b20fwd":      {9, 2, 5, false},
	"fig2/concrete/b250":        {26, 1, 0, false},
	"fig2/concrete/b20fwd":      {31, 3, 0, false},
	"fig2/symbolic/b250":        {26, 1, 0, false},
	"fig2/symbolic/b20fwd":      {31, 3, 0, false},
	"fig4/concrete/b250":        {28, 2, 0, false},
	"fig4/concrete/b20fwd":      {28, 2, 0, false},
	"fig4/symbolic/b250":        {28, 2, 0, false},
	"fig4/symbolic/b20fwd":      {28, 2, 0, false},
	"fig5/concrete/b250":        {13, 1, 0, false},
	"fig5/concrete/b20fwd":      {31, 6, 0, false},
	"fig5/symbolic/b250":        {13, 1, 0, false},
	"fig5/symbolic/b20fwd":      {31, 6, 0, false},
	"fig6/concrete/b250":        {20, 2, 16, false},
	"fig6/concrete/b20fwd":      {26, 4, 16, false},
	"fig6/symbolic/b250":        {20, 2, 16, false},
	"fig6/symbolic/b20fwd":      {26, 4, 16, false},
	"fig7/concrete/b250":        {13, 1, 0, false},
	"fig7/concrete/b20fwd":      {18, 3, 7, false},
	"fig7/symbolic/b250":        {13, 1, 0, false},
	"fig7/symbolic/b20fwd":      {18, 3, 7, false},
	"fig8/concrete/b250":        {9, 2, 0, false},
	"fig8/concrete/b20fwd":      {9, 2, 0, false},
	"fig8/symbolic/b250":        {9, 2, 0, false},
	"fig8/symbolic/b20fwd":      {9, 2, 0, false},
	"fig11/concrete/b250":       {9, 1, 0, false},
	"fig11/concrete/b20fwd":     {9, 1, 0, false},
	"fig11/symbolic/b250":       {9, 1, 0, false},
	"fig11/symbolic/b20fwd":     {9, 1, 0, false},
	"fig12/concrete/b250":       {15, 1, 0, false},
	"fig12/concrete/b20fwd":     {29, 2, 0, false},
	"fig12/symbolic/b250":       {15, 1, 0, false},
	"fig12/symbolic/b20fwd":     {29, 2, 0, false},
	"fig13/concrete/b250":       {262, 1, 0, false},
	"fig13/concrete/b20fwd":     {124, 6, 0, false},
	"fig13/symbolic/b250":       {262, 1, 0, false},
	"fig13/symbolic/b20fwd":     {124, 6, 0, false},
	"kocher01/concrete/b250":    {45, 2, 25, false},
	"kocher01/concrete/b20fwd":  {78, 11, 25, false},
	"kocher01/symbolic/b250":    {74, 3, 25, false},
	"kocher01/symbolic/b20fwd":  {119, 14, 25, false},
	"kocher02/concrete/b250":    {67, 3, 24, false},
	"kocher02/concrete/b20fwd":  {119, 19, 24, false},
	"kocher02/symbolic/b250":    {140, 5, 24, false},
	"kocher02/symbolic/b20fwd":  {212, 24, 24, false},
	"kocher03/concrete/b250":    {20000, 235, 437, true},
	"kocher03/concrete/b20fwd":  {1119, 186, 57, false},
	"kocher03/symbolic/b250":    {20000, 658, 0, true},
	"kocher03/symbolic/b20fwd":  {17432, 2019, 57, false},
	"kocher04/concrete/b250":    {21, 1, 20, false},
	"kocher04/concrete/b20fwd":  {30, 5, 20, false},
	"kocher04/symbolic/b250":    {21, 1, 20, false},
	"kocher04/symbolic/b20fwd":  {30, 5, 20, false},
	"kocher05/concrete/b250":    {53, 2, 29, false},
	"kocher05/concrete/b20fwd":  {94, 13, 29, false},
	"kocher05/symbolic/b250":    {82, 3, 29, false},
	"kocher05/symbolic/b20fwd":  {135, 16, 29, false},
	"kocher06/concrete/b250":    {59, 3, 25, false},
	"kocher06/concrete/b20fwd":  {137, 17, 25, false},
	"kocher06/symbolic/b250":    {88, 4, 25, false},
	"kocher06/symbolic/b20fwd":  {180, 22, 25, false},
	"kocher07/concrete/b250":    {49, 2, 27, false},
	"kocher07/concrete/b20fwd":  {85, 11, 27, false},
	"kocher07/symbolic/b250":    {78, 3, 27, false},
	"kocher07/symbolic/b20fwd":  {126, 14, 27, false},
	"kocher08/concrete/b250":    {70, 2, 29, false},
	"kocher08/concrete/b20fwd":  {162, 18, 29, false},
	"kocher08/symbolic/b250":    {102, 3, 29, false},
	"kocher08/symbolic/b20fwd":  {209, 23, 29, false},
	"kocher09/concrete/b250":    {65, 2, 35, false},
	"kocher09/concrete/b20fwd":  {114, 13, 34, false},
	"kocher09/symbolic/b250":    {94, 3, 35, false},
	"kocher09/symbolic/b20fwd":  {155, 16, 34, false},
	"kocher10/concrete/b250":    {68, 3, 24, false},
	"kocher10/concrete/b20fwd":  {160, 26, 24, false},
	"kocher10/symbolic/b250":    {113, 5, 24, false},
	"kocher10/symbolic/b20fwd":  {217, 30, 24, false},
	"kocher11/concrete/b250":    {53, 2, 33, false},
	"kocher11/concrete/b20fwd":  {88, 14, 29, false},
	"kocher11/symbolic/b250":    {100, 3, 33, false},
	"kocher11/symbolic/b20fwd":  {191, 20, 29, false},
	"kocher12/concrete/b250":    {51, 2, 27, false},
	"kocher12/concrete/b20fwd":  {88, 10, 27, false},
	"kocher12/symbolic/b250":    {77, 3, 27, false},
	"kocher12/symbolic/b20fwd":  {125, 13, 27, false},
	"kocher13/concrete/b250":    {52, 2, 32, false},
	"kocher13/concrete/b20fwd":  {79, 9, 32, false},
	"kocher13/symbolic/b250":    {55, 3, 32, false},
	"kocher13/symbolic/b20fwd":  {84, 11, 32, false},
	"kocher14/concrete/b250":    {44, 2, 24, false},
	"kocher14/concrete/b20fwd":  {108, 14, 24, false},
	"kocher14/symbolic/b250":    {67, 3, 24, false},
	"kocher14/symbolic/b20fwd":  {141, 17, 24, false},
	"kocher15/concrete/b250":    {47, 2, 27, false},
	"kocher15/concrete/b20fwd":  {80, 11, 27, false},
	"kocher15/symbolic/b250":    {82, 3, 27, false},
	"kocher15/symbolic/b20fwd":  {129, 14, 27, false},
	"specv1_01/concrete/b250":   {45, 2, 25, false},
	"specv1_01/concrete/b20fwd": {78, 11, 25, false},
	"specv1_01/symbolic/b250":   {74, 3, 25, false},
	"specv1_01/symbolic/b20fwd": {119, 14, 25, false},
	"specv1_02/concrete/b250":   {12076, 582, 146, false},
	"specv1_02/concrete/b20fwd": {3531, 591, 166, false},
	"specv1_02/symbolic/b250":   {12076, 582, 146, false},
	"specv1_02/symbolic/b20fwd": {3531, 591, 166, false},
	"specv1_03/concrete/b250":   {51, 2, 29, false},
	"specv1_03/concrete/b20fwd": {88, 11, 29, false},
	"specv1_03/symbolic/b250":   {83, 3, 29, false},
	"specv1_03/symbolic/b20fwd": {133, 14, 29, false},
	"specv1_04/concrete/b250":   {77, 3, 35, false},
	"specv1_04/concrete/b20fwd": {142, 21, 35, false},
	"specv1_04/symbolic/b250":   {166, 7, 35, false},
	"specv1_04/symbolic/b20fwd": {266, 29, 35, false},
	"specv1_05/concrete/b250":   {51, 2, 31, false},
	"specv1_05/concrete/b20fwd": {87, 11, 31, false},
	"specv1_05/symbolic/b250":   {89, 3, 31, false},
	"specv1_05/symbolic/b20fwd": {140, 14, 31, false},
	"specv1_06/concrete/b250":   {50, 2, 30, false},
	"specv1_06/concrete/b20fwd": {84, 13, 27, false},
	"specv1_06/symbolic/b250":   {91, 3, 30, false},
	"specv1_06/symbolic/b20fwd": {176, 19, 27, false},
	"v11_01/concrete/b250":      {68, 2, 28, false},
	"v11_01/concrete/b20fwd":    {546, 99, 28, false},
	"v11_01/symbolic/b250":      {105, 3, 28, false},
	"v11_01/symbolic/b20fwd":    {1399, 234, 28, false},
	"v11_02/concrete/b250":      {65, 2, 29, false},
	"v11_02/concrete/b20fwd":    {275, 35, 29, false},
	"v11_02/symbolic/b250":      {98, 3, 29, false},
	"v11_02/symbolic/b20fwd":    {479, 61, 29, false},
	"v11_03/concrete/b250":      {38, 1, 0, false},
	"v11_03/concrete/b20fwd":    {125, 15, 20, false},
	"v11_03/symbolic/b250":      {38, 1, 0, false},
	"v11_03/symbolic/b20fwd":    {116, 16, 21, false},
	"v11_04/concrete/b250":      {53, 1, 0, false},
	"v11_04/concrete/b20fwd":    {208, 27, 29, false},
	"v11_04/symbolic/b250":      {36, 1, 0, false},
	"v11_04/symbolic/b20fwd":    {199, 28, 30, false},
}

// TestCursorInvariant runs the figure gallery and the Kocher,
// spec-only v1 and v1.1 corpora in both domains, in both phases of the paper's procedure (bound 250 without
// forwarding hazards, bound 20 with them). In every state executePhase
// scans, each index below the settled-prefix cursor must be settled —
// resolved and not a fence, or a pending branch — and the machine's
// pending-branch index must list exactly the pending branches of a
// scan of the whole buffer, in ascending order. With forwarding
// hazards on, each unresolved load is also executed on a fork of the
// machine, and the step must fail or leave the load resolved in every
// successor: the strategy issues only plain execute directives, which
// stall or resolve a load, so the load fork's execute-now arm never
// comes back to the same unresolved load and the fork keeps no record
// of which loads it has taken. The
// exploration counts must match the pins, so neither the cursor nor
// the index changes a decision.
func TestCursorInvariant(t *testing.T) {
	var checked, loads, failures atomic.Int64
	// fwd is set before each run and read by the hook during the run.
	var fwd bool
	defer sched.SetCursorCheck(func(m sched.Machine, settled int) {
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
		var branches []int
		for i := m.BufMin(); i <= m.BufMax(); i++ {
			v, _ := m.View(i)
			if i < settled && v.Kind != core.TBr && (!v.Resolved || v.Kind == core.TFence) {
				fail("index %d below cursor %d is unsettled: %+v", i, settled, v)
			}
			if v.Kind == core.TBr {
				branches = append(branches, i)
			}
			if !fwd || v.Kind != core.TLoad || v.Resolved {
				continue
			}
			loads.Add(1)
			succs, err := m.Fork().Successors(core.Execute(i))
			if err != nil {
				continue
			}
			for _, sc := range succs {
				if v, ok := sc.M.View(i); !ok || !v.Resolved {
					fail("execute %d left the load unresolved (in buffer %t): %+v", i, ok, v)
				}
			}
		}
		if !slices.Equal(m.Branches(), branches) {
			fail("branch index %v, pending branches in [%d, %d] are %v", m.Branches(), m.BufMin(), m.BufMax(), branches)
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
				fwd = ph.fwd
				opts := pitchfork.Options{Bound: ph.bound, ForwardHazards: ph.fwd, MaxStates: 20_000}
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
				if got != want {
					t.Errorf("%s: got %+v, want %+v", key, got, want)
				}
			}
		}
	}
	if runs != len(cursorPins) {
		t.Errorf("%d runs, want one for each of the %d pins", runs, len(cursorPins))
	}
	if checked.Load() == 0 {
		t.Fatal("the cursor check never ran")
	}
	if loads.Load() == 0 {
		t.Fatal("no unresolved load was ever scanned")
	}
	t.Logf("%d runs, cursor checked in %d states, %d unresolved loads executed", runs, checked.Load(), loads.Load())
}
