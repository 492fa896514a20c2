// Differential oracle for the engine unification: on fully-concrete
// initial states the symbolic domain degenerates to constant
// expressions, so both domains must walk the same worst-case schedule
// tree and report exactly the same findings — same program counters,
// same speculation sources, same variant kinds, same observations —
// across the Kocher, spec-only v1 and v1.1 corpora.
package pitchfork_test

import (
	"fmt"
	"sort"
	"testing"

	"pitchfork/internal/ct"
	"pitchfork/internal/pitchfork"
	"pitchfork/internal/testcases"
)

// concreteFindingKeys projects a report onto the domain-independent
// finding fields, sorted (the serial drivers of the two domains agree
// on the tree but symbolic witness/trace representations differ).
func concreteFindingKeys(rep pitchfork.Report) []string {
	out := make([]string, len(rep.Violations))
	for i, v := range rep.Violations {
		out[i] = fmt.Sprintf("%s|%s|pc=%d|src=%v", v.Kind, v.Obs, v.PC, v.Sources)
	}
	sort.Strings(out)
	return out
}

func TestDifferentialConcreteVsSymbolicOnCorpora(t *testing.T) {
	var cases []testcases.Case
	for _, corpus := range [][]testcases.Case{testcases.Kocher(), testcases.SpecOnlyV1(), testcases.V11()} {
		cases = append(cases, corpus...)
	}
	for _, c := range cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			opts := pitchfork.Options{Bound: 20, ForwardHazards: c.NeedsFwdHazards}

			m, err := c.Build()
			if err != nil {
				t.Fatal(err)
			}
			concrete, err := pitchfork.Analyze(m, opts)
			if err != nil {
				t.Fatal(err)
			}

			// The same program, symbolically — but with every input left
			// at its concrete seed (no symbolic variables), so the
			// domains must agree exactly.
			comp, err := ct.Compile(c.Source(), ct.ModeC)
			if err != nil {
				t.Fatal(err)
			}
			symbolic, err := pitchfork.AnalyzeSymbolic(pitchfork.NewSym(comp.Prog), opts)
			if err != nil {
				t.Fatal(err)
			}

			if concrete.States != symbolic.States || concrete.Paths != symbolic.Paths {
				t.Errorf("tree shape differs: concrete %d states / %d paths, symbolic %d states / %d paths",
					concrete.States, concrete.Paths, symbolic.States, symbolic.Paths)
			}
			ck, sk := concreteFindingKeys(concrete), concreteFindingKeys(symbolic)
			if len(ck) != len(sk) {
				t.Fatalf("finding counts differ: concrete %d, symbolic %d\n concrete %v\n symbolic %v",
					len(ck), len(sk), ck, sk)
			}
			for i := range ck {
				if ck[i] != sk[i] {
					t.Fatalf("finding %d differs:\n concrete %s\n symbolic %s", i, ck[i], sk[i])
				}
			}
		})
	}
}
