package repair

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"pitchfork/internal/core"
	"pitchfork/internal/isa"
	"pitchfork/internal/pitchfork"
	"pitchfork/internal/testcases"
)

// corpusOptions verifies CTL-compiled cases (no register seeds — all
// inputs live in the data image) at the hazard-aware bound.
// Fingerprint dedup keeps the loop cases tractable: many
// forwarding-fork arms reconverge, and pruning them preserves the
// violation set, so a deduped clean run is still a certificate.
func corpusOptions() Options {
	return Options{
		Verify: func(p *isa.Program) (pitchfork.Report, error) {
			return pitchfork.Analyze(core.New(p), pitchfork.Options{
				Bound: 20, ForwardHazards: true, DedupEntries: 1 << 20,
			})
		},
		Machine: func(p *isa.Program) *core.Machine { return core.New(p) },
	}
}

// repairCorpus repairs every case of a suite and checks the contract:
// flagged speculative cases come back re-verified secret-free with a
// 1-minimal fence set; sequential leakers are reported unrepairable.
// At least one case per suite must actually exercise the repair path,
// so a suite going quiet (nothing flagged, nothing repaired) fails.
func repairCorpus(t *testing.T, cases []testcases.Case) {
	t.Helper()
	repaired := 0
	for _, c := range cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			m, err := c.Build()
			if err != nil {
				t.Fatal(err)
			}
			opts := corpusOptions()
			res, err := Repair(m.Prog, opts)
			if err != nil {
				t.Fatalf("Repair: %v", err)
			}
			switch {
			case c.SequentialLeak:
				if res.Outcome != OutcomeSequentialLeak {
					t.Fatalf("outcome = %s, want sequential-leak (case leaks architecturally)", res.Outcome)
				}
				return
			case res.Outcome == OutcomeClean:
				// Not flagged at this bound/config; nothing to repair.
				return
			}
			if res.Outcome != OutcomeRepaired {
				t.Fatalf("outcome = %s, want repaired (before: %s)", res.Outcome, res.Before.Summary())
			}
			repaired++
			if !res.After.SecretFree() {
				t.Fatalf("repaired program still flagged: %s", res.After.Summary())
			}
			if len(res.Sites) == 0 {
				t.Fatal("repaired with an empty fence set")
			}
			for _, f := range res.Fences {
				if in, ok := res.Prog.At(f); !ok || in.Kind != isa.KFence {
					t.Fatalf("reported fence point %d does not hold a fence", f)
				}
			}
			assert1Minimal(t, m.Prog, res, opts)
		})
	}
	if repaired*2 < len(cases) {
		t.Errorf("only %d/%d cases repaired; the repair path has gone quiet", repaired, len(cases))
	}
}

func TestRepairKocherSuite(t *testing.T)     { repairCorpus(t, testcases.Kocher()) }
func TestRepairSpecOnlyV1Suite(t *testing.T) { repairCorpus(t, testcases.SpecOnlyV1()) }
func TestRepairV11Suite(t *testing.T)        { repairCorpus(t, testcases.V11()) }

// TestMinimizeSkipsIdentityTrial checks that minimization never
// re-verifies the input program: when a trial drops the last site and
// the plan comes out empty, the trial is the original, which the
// baseline verification already found not clean. Each case is a
// multi-site fence repair whose minimizer reaches that trial in the
// auto portfolio; a counting verifier must see the original exactly
// once. The chosen result and every strategy's attempt (outcome, sites,
// fences, cost) are pinned to what they were when the minimizer still
// verified the identity trial.
func TestMinimizeSkipsIdentityTrial(t *testing.T) {
	pinned := []struct {
		c    testcases.Case
		want []string
	}{
		{testcases.Kocher()[2], []string{
			"fence repaired sites=[10] fences=[10] inserted=1 iters=1 pre=6 seq=24/24",
			"fence repaired sites=[10] fences=[10] inserted=1 iters=1 pre=6 seq=24/24",
			"mask exhausted sites=[5] fences=[] inserted=0 iters=1 pre=0 seq=0/0",
			"ret exhausted sites=[20] fences=[] inserted=0 iters=1 pre=0 seq=0/0",
		}},
		{testcases.V11()[0], []string{
			"fence repaired sites=[7] fences=[7] inserted=1 iters=1 pre=5 seq=13/13",
			"fence repaired sites=[7] fences=[7] inserted=1 iters=1 pre=5 seq=13/13",
			"mask exhausted sites=[] fences=[] inserted=0 iters=0 pre=0 seq=0/0",
			"ret exhausted sites=[16] fences=[] inserted=0 iters=1 pre=0 seq=0/0",
		}},
	}
	// same reports whether two programs have the same entry and
	// instructions (an absent and an empty operand list are equal).
	same := func(a, b *isa.Program) bool {
		if a.Entry != b.Entry || len(a.Instrs) != len(b.Instrs) {
			return false
		}
		for pp, in := range a.Instrs {
			o, ok := b.Instrs[pp]
			if !ok || !slices.Equal(in.Args, o.Args) {
				return false
			}
			in.Args, o.Args = nil, nil
			if !reflect.DeepEqual(in, o) {
				return false
			}
		}
		return true
	}
	summary := func(r *Result) string {
		return fmt.Sprintf("%s %s sites=%v fences=%v inserted=%d iters=%d pre=%d seq=%d/%d",
			r.Strategy, r.Outcome, r.Sites, r.Fences, r.Inserted, r.Iterations, r.PreMinimizeFences, r.SeqInstrsBefore, r.SeqInstrs)
	}
	for _, pin := range pinned {
		name := pin.c.Name
		m, err := pin.c.Build()
		if err != nil {
			t.Fatal(err)
		}
		opts := corpusOptions()
		opts.Strategy = StrategyAuto
		verify, originals := opts.Verify, 0
		opts.Verify = func(p *isa.Program) (pitchfork.Report, error) {
			if same(p, m.Prog) {
				originals++
			}
			return verify(p)
		}
		res, err := Repair(m.Prog, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := []string{summary(res)}
		for _, a := range res.PerStrategy {
			got = append(got, summary(a))
		}
		if !slices.Equal(got, pin.want) {
			t.Errorf("%s: results\n%q\nwant\n%q", name, got, pin.want)
		}
		if originals != 1 {
			t.Errorf("%s: the original program was verified %d times, want once (the baseline)", name, originals)
		}
	}
}
