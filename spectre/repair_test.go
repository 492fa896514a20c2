package spectre_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"

	"pitchfork/internal/testcases"
	"pitchfork/spectre"
)

// repairAnalyzer is the corpus configuration: the default hazard-aware
// bound.
func repairAnalyzer(t *testing.T, opts ...spectre.Option) *spectre.Analyzer {
	t.Helper()
	an, err := spectre.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func compileCase(t *testing.T, c testcases.Case) *spectre.Program {
	t.Helper()
	p, err := spectre.CompileCTL(c.Source(), spectre.ModeC)
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	return p
}

// TestRepairKocherCorpus is the acceptance criterion: Repair over the
// full Kocher corpus (classic, speculative-only, and v1.1 suites)
// yields re-verified secret-free programs for every flagged speculative
// case, with a reported fence count and overhead, and reports the
// architecturally leaking cases unrepairable. The cases run as parallel
// subtests sharing one Analyzer, the way a caller repairs a corpus.
func TestRepairKocherCorpus(t *testing.T) {
	var cases []testcases.Case
	for _, suite := range [][]testcases.Case{testcases.Kocher(), testcases.SpecOnlyV1(), testcases.V11()} {
		cases = append(cases, suite...)
	}
	an := repairAnalyzer(t)
	var repaired atomic.Int64
	t.Run("cases", func(t *testing.T) {
		for _, c := range cases {
			t.Run(c.Name, func(t *testing.T) {
				t.Parallel()
				res, err := an.Repair(context.Background(), compileCase(t, c))
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case c.SequentialLeak:
					if res.Outcome != spectre.RepairSequentialLeak {
						t.Errorf("%s: outcome %s, want sequential-leak", c.Name, res.Outcome)
					}
				case res.Outcome == spectre.RepairClean:
					// Not flagged at this bound; nothing to do.
				case res.Outcome == spectre.RepairRepaired:
					repaired.Add(1)
					if !res.After.SecretFree {
						t.Errorf("%s: repaired program still flagged: %s", c.Name, res.After.Summary())
					}
					if res.Cost.Fences < 1 || res.Cost.InstrAfter != res.Cost.InstrBefore+res.Cost.Inserted {
						t.Errorf("%s: inconsistent cost %+v", c.Name, res.Cost)
					}
					if res.Cost.StatesBefore == 0 || res.Cost.StatesAfter == 0 {
						t.Errorf("%s: missing exploration-overhead accounting: %+v", c.Name, res.Cost)
					}
					// The default strategy is the auto portfolio: the
					// chosen patch must name its strategy, carry all three
					// attempts on the wire, and cost no more (by the
					// sequential model) than the fence-only baseline.
					if res.Strategy == "" || res.Strategy == spectre.StrategyAuto {
						t.Errorf("%s: chosen strategy %q", c.Name, res.Strategy)
					}
					if len(res.PerStrategy) != 3 {
						t.Errorf("%s: %d portfolio attempts on the wire, want 3", c.Name, len(res.PerStrategy))
					}
					for _, a := range res.PerStrategy {
						if a.Strategy == spectre.StrategyFence && a.Outcome == spectre.RepairRepaired &&
							res.Cost.SeqInstrsAfter > a.Cost.SeqInstrsAfter {
							t.Errorf("%s: chose %s at seq cost %d over fence at %d", c.Name, res.Strategy,
								res.Cost.SeqInstrsAfter, a.Cost.SeqInstrsAfter)
						}
					}
					// The repaired wrapper must re-analyze clean through
					// the ordinary Run path too.
					rep, err := an.Run(context.Background(), res.Program)
					if err != nil {
						t.Errorf("%s: re-run: %v", c.Name, err)
					} else if !rep.SecretFree {
						t.Errorf("%s: re-run of repaired program flagged: %s", c.Name, rep.Summary())
					}
				default:
					t.Errorf("%s: outcome %s (before: %s)", c.Name, res.Outcome, res.Before.Summary())
				}
			})
		}
	})
	if n := int(repaired.Load()); n < len(cases)/2 {
		t.Errorf("only %d/%d cases repaired; the corpus has gone quiet", n, len(cases))
	}
}

// TestRepairGalleryCorpus runs the repair engine over the paper's
// worked figures: every figure the analyzer flags must come back
// secret-free.
func TestRepairGalleryCorpus(t *testing.T) {
	an := repairAnalyzer(t)
	flagged := 0
	for _, f := range spectre.Gallery() {
		p := f.Program()
		res, err := an.Repair(context.Background(), p)
		if err != nil {
			t.Errorf("%s: %v", f.ID, err)
			continue
		}
		if res.Outcome == spectre.RepairClean {
			continue
		}
		flagged++
		if res.Outcome != spectre.RepairRepaired {
			t.Errorf("%s: outcome %s", f.ID, res.Outcome)
			continue
		}
		if !res.After.SecretFree {
			t.Errorf("%s: repaired figure still flagged: %s", f.ID, res.After.Summary())
		}
	}
	if flagged == 0 {
		t.Error("no gallery figure exercised the repair path")
	}
}

// TestRepairFindingSources pins the new wire field: a v1 finding names
// its guarding branch.
func TestRepairFindingSources(t *testing.T) {
	an := repairAnalyzer(t)
	p := compileCase(t, testcases.Kocher()[0]) // kocher01
	rep, err := an.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SecretFree {
		t.Fatal("kocher01 must be flagged")
	}
	found := false
	for _, f := range rep.Findings {
		for _, s := range f.Sources {
			if s.Kind == spectre.SourceBranch {
				found = true
				if !strings.Contains(s.String(), "branch@") {
					t.Fatalf("SpecSource.String() = %q", s.String())
				}
			}
		}
	}
	if !found {
		t.Fatalf("no finding names a branch source: %+v", rep.Findings)
	}
}

// TestRepairSymbolicMode repairs under the symbolic detector: the
// attacker index x is unconstrained, and the fence set must still
// re-verify secret-free.
func TestRepairSymbolicMode(t *testing.T) {
	c := testcases.Kocher()[0]
	p := compileCase(t, c)
	if !p.SymbolicGlobal("x", "x") {
		t.Fatal("no global x")
	}
	an, err := spectre.New(spectre.WithSymbolic(true))
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.Repair(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != spectre.RepairRepaired {
		t.Fatalf("outcome = %s (before: %s)", res.Outcome, res.Before.Summary())
	}
	if !res.After.SecretFree {
		t.Fatalf("symbolically repaired program still flagged: %s", res.After.Summary())
	}
}

// TestRepairSymbolicSequentialLeak: the sequential-leak precheck runs
// in symbolic mode too (replaying the concrete seeds), so an
// architecturally leaking program is reported unrepairable instead of
// churning to exhaustion with useless fences.
func TestRepairSymbolicSequentialLeak(t *testing.T) {
	const src = `
public a2[64];
secret skey = 7;
public temp;
fn main() {
  temp = a2[skey * 2];
}`
	p, err := spectre.CompileCTL(src, spectre.ModeC)
	if err != nil {
		t.Fatal(err)
	}
	an, err := spectre.New(spectre.WithSymbolic(true))
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.Repair(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != spectre.RepairSequentialLeak {
		t.Fatalf("outcome = %s, want sequential-leak", res.Outcome)
	}
	if res.Program.Len() != p.Len() {
		t.Fatal("unrepairable program was rewritten")
	}
}

// TestRepairSummaryAndCostTable sanity-checks the human renderings.
func TestRepairSummaryAndCostTable(t *testing.T) {
	an := repairAnalyzer(t)
	p := compileCase(t, testcases.Kocher()[0])
	res, err := an.Repair(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != spectre.RepairRepaired {
		t.Fatalf("outcome = %s", res.Outcome)
	}
	if s := res.Summary(); !strings.Contains(s, "repaired:") || !strings.Contains(s, "fence") {
		t.Errorf("Summary() = %q", s)
	}
	tab := res.Cost.Table()
	for _, want := range []string{"fences added", "instructions", "explored states", "iterations"} {
		if !strings.Contains(tab, want) {
			t.Errorf("cost table lacks %q:\n%s", want, tab)
		}
	}
	if res.Program.Len() != res.Cost.InstrAfter {
		t.Errorf("repaired program length %d != reported %d", res.Program.Len(), res.Cost.InstrAfter)
	}
}

// TestRepairCancelledContext: a pre-cancelled context aborts the
// synthesis with an error rather than certifying anything.
func TestRepairCancelledContext(t *testing.T) {
	an := repairAnalyzer(t)
	p := compileCase(t, testcases.Kocher()[0])
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := an.Repair(ctx, p); err == nil {
		t.Fatal("cancelled repair returned no error")
	}
}

// TestUnrewrittenRepairKeepsFunctionEntries: a repair that rewrote
// nothing hands back the input program, so every CTL function entry
// must stay where it was. Here a helper precedes main; the ret
// strategy commits the helper's ret as a site, cannot secure the
// gadget, and gives up — main, behind the site, must not move.
func TestUnrewrittenRepairKeepsFunctionEntries(t *testing.T) {
	const src = `
public size = 4;
public a1[4] = {1, 2, 3, 4};
secret key[8] = {160, 161, 162, 163, 164, 165, 166, 167};
public a2[64];
public x = 5;
public temp;
fn leak(v) {
  return a2[v * 2];
}
fn main() {
  if (x < size) {
    temp = temp & leak(a1[x]);
  }
}`
	p, err := spectre.CompileCTL(src, spectre.ModeC)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repairAnalyzer(t, spectre.WithRepairStrategy(spectre.StrategyRet)).Repair(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != spectre.RepairExhausted || len(res.Sites) == 0 {
		t.Fatalf("outcome %s with sites %v, want exhausted with committed sites", res.Outcome, res.Sites)
	}
	for _, fn := range []string{"leak", "main"} {
		want, _ := p.Lookup(fn)
		if got, _ := res.Program.Lookup(fn); got != want {
			t.Errorf("%s entry moved from %d to %d in an unrewritten program", fn, want, got)
		}
	}
	if res.Program.Fingerprint() != p.Fingerprint() {
		t.Error("unrewritten result differs from the input program")
	}
}

// TestGiveUpCostRowDescribesInput: a strategy that commits a site but
// cannot secure the program hands back the input, so its cost row
// counts no fences and no exploration change — both for the strategy
// run on its own and for its row in the auto portfolio. The ret
// strategy on kocher01 protects main's ret, which cannot stop the
// bounds-check bypass.
func TestGiveUpCostRowDescribesInput(t *testing.T) {
	p := compileCase(t, testcases.Kocher()[0])
	ret, err := spectre.New(spectre.WithRepairStrategy(spectre.StrategyRet))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ret.Repair(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != spectre.RepairExhausted || len(res.Sites) == 0 {
		t.Fatalf("outcome %s with sites %v, want exhausted with committed sites", res.Outcome, res.Sites)
	}
	if c := res.Cost; c.Fences != 0 || c.StatesAfter != c.StatesBefore || c.InstrAfter != c.InstrBefore {
		t.Errorf("ret cost row describes a discarded rewrite: %+v", c)
	}
	if len(res.FencePoints) != 0 || res.After.States != res.Before.States {
		t.Errorf("fence points %v, states %d → %d on an unrewritten result", res.FencePoints, res.Before.States, res.After.States)
	}

	auto, err := spectre.New()
	if err != nil {
		t.Fatal(err)
	}
	res, err = auto.Repair(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range res.PerStrategy {
		if a.Strategy != spectre.StrategyRet {
			continue
		}
		found = true
		if a.Outcome != spectre.RepairExhausted {
			t.Fatalf("auto's ret attempt: outcome %s, want exhausted", a.Outcome)
		}
		if a.Cost.Fences != 0 || a.Cost.StatesAfter != a.Cost.StatesBefore {
			t.Errorf("auto's ret row describes a discarded rewrite: %+v", a.Cost)
		}
	}
	if !found {
		t.Fatalf("auto portfolio has no ret row: %+v", res.PerStrategy)
	}
}

// TestStaticPassDoesNotChangeRepair: every repair candidate is
// re-verified by the explorer, so WithStaticPass must leave a repair's
// wire result byte-identical — over the corpus and the gallery, under
// every strategy.
func TestStaticPassDoesNotChangeRepair(t *testing.T) {
	progs := map[string]*spectre.Program{}
	for _, suite := range [][]testcases.Case{testcases.Kocher(), testcases.SpecOnlyV1(), testcases.V11()} {
		for _, c := range suite {
			progs[c.Name] = compileCase(t, c)
		}
	}
	for _, f := range spectre.Gallery() {
		progs[f.ID] = f.Program()
	}
	for _, strategy := range []string{spectre.StrategyAuto, spectre.StrategyFence, spectre.StrategyMask, spectre.StrategyRet} {
		plain := repairAnalyzer(t, spectre.WithRepairStrategy(strategy))
		static := repairAnalyzer(t, spectre.WithRepairStrategy(strategy), spectre.WithStaticPass(true))
		t.Run(strategy, func(t *testing.T) {
			for name, p := range progs {
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					var got [2][]byte
					for i, an := range []*spectre.Analyzer{plain, static} {
						res, err := an.Repair(context.Background(), p)
						if err != nil {
							t.Fatal(err)
						}
						if got[i], err = json.Marshal(res); err != nil {
							t.Fatal(err)
						}
					}
					if !bytes.Equal(got[0], got[1]) {
						t.Errorf("static pass changed the repair\n-- without --\n%s\n-- with --\n%s", got[0], got[1])
					}
				})
			}
		})
	}
}
