// Determinism under the concurrency the engine supports on the paper's
// §4.2 corpus. An exploration runs on one goroutine; a caller uses
// several cores by running explorations at once on shared Explorers.
// Each case is explored once alone and once while the other cases'
// explorations run on the same Explorer: the explored tree, and with it
// the violation list, must be exactly the lone run's.
package pitchfork_test

import (
	"testing"

	"pitchfork/internal/sched"
	"pitchfork/internal/testcases"
)

func violationStrings(res sched.Result) []string {
	out := make([]string, len(res.Violations))
	for i, v := range res.Violations {
		out[i] = v.String() + "|" + v.Schedule.String()
	}
	return out
}

func TestParallelMatchesSerialOnKocherSuite(t *testing.T) {
	shared := map[bool]*sched.Explorer{}
	for _, fwd := range []bool{false, true} {
		e, err := sched.NewExplorer(sched.Options{Bound: 20, ForwardHazards: fwd})
		if err != nil {
			t.Fatal(err)
		}
		shared[fwd] = e
	}
	for _, c := range testcases.Kocher() {
		t.Run(c.Name, func(t *testing.T) {
			e := shared[c.NeedsFwdHazards]
			m, err := c.Build()
			if err != nil {
				t.Fatal(err)
			}
			// Subtests run one by one up to t.Parallel, then together.
			serial := e.Explore(m)
			t.Parallel()
			par := e.Explore(m)

			if serial.States != par.States || serial.Paths != par.Paths {
				t.Fatalf("alone %d states / %d paths, concurrently %d states / %d paths",
					serial.States, serial.Paths, par.States, par.Paths)
			}
			ss, ps := violationStrings(serial), violationStrings(par)
			if len(ss) != len(ps) {
				t.Fatalf("violation counts differ: alone %d, concurrently %d", len(ss), len(ps))
			}
			for i := range ss {
				if ss[i] != ps[i] {
					t.Fatalf("violation %d differs:\n alone        %s\n concurrently %s", i, ss[i], ps[i])
				}
			}
		})
	}
}
