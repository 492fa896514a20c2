// Command pitchfork analyzes a CTL source file for speculative
// constant-time violations, following the paper's §4.2.1 procedure.
//
// Usage:
//
//	pitchfork [-mode c|fact] [-bound N] [-fwd] [-all] [-json] [-symbolic] [-symvars x] [-static] [-repair] [-strategy auto|fence|mask|ret] file.ctl
//
// Without -bound/-fwd the two-phase procedure runs: bound 250 without
// forwarding-hazard detection, then bound 20 with it. With -json the
// stable machine-readable report schema is emitted instead of the
// human-readable summary. -symbolic switches to the symbolic detector:
// the globals named by -symvars (default x, the corpus convention for
// the attacker-controlled index) become unconstrained solver
// variables, and each finding carries a witness assignment.
//
// -static enables the speculative-taint pre-analysis: a program the
// static pass proves safe is certified in O(|program|) without running
// the explorer, and a program it cannot prove safe is explored in
// hybrid mode: the full exploration, with the static verdict attached
// to the report. -static does not change a -repair run: every
// candidate patch is re-verified by the explorer.
//
// -repair switches from detection to mitigation: the tool synthesizes
// a minimal patch set (propose at the guarding speculation source,
// re-verify, iterate, minimize), then emits the repaired program with
// its cost table and — under the default -strategy=auto portfolio —
// a per-strategy comparison table. -strategy picks the mitigation:
// "fence" (§3.6 speculation fences), "mask" (SLH-style speculative
// load hardening), "ret" (Figure 13 retpolines), or "auto" to run all
// three and keep the cheapest certified patch by estimated sequential
// cost. Repair verifies at the hazard-aware bound 20 unless
// -bound/-fwd override it; the exit status is 0 only when the program
// is secret-free as given or after repair.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"pitchfork/spectre"
)

func main() {
	mode := flag.String("mode", "c", "backend: c (branchy) or fact (constant-time selects)")
	bound := flag.Int("bound", 0, "speculation bound (0 = run the paper's two-phase procedure)")
	fwd := flag.Bool("fwd", false, "enable forwarding-hazard detection (with -bound)")
	all := flag.Bool("all", false, "report all violations, not just the first")
	jsonOut := flag.Bool("json", false, "emit the machine-readable JSON report")
	symbolic := flag.Bool("symbolic", false, "symbolic mode: unbind the -symvars globals as unconstrained attacker inputs")
	symvars := flag.String("symvars", "x", "comma-separated CTL globals to unbind in -symbolic mode")
	static := flag.Bool("static", false, "run the static taint pre-analysis: certify safe programs without exploring, attach the verdict otherwise")
	doRepair := flag.Bool("repair", false, "synthesize a minimal repair and emit the repaired program with its cost table")
	strategy := flag.String("strategy", "auto", "repair mitigation: auto (cheapest certified), fence, mask, or ret (with -repair)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pitchfork [flags] file.ctl")
		os.Exit(2)
	}
	if *bound < 0 {
		fatal(fmt.Errorf("speculation bound must be positive, got %d", *bound))
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	m, err := spectre.ParseSourceMode(*mode)
	if err != nil {
		fatal(err)
	}
	prog, err := spectre.CompileCTL(string(src), m)
	if err != nil {
		fatal(err)
	}
	if *symbolic {
		for _, name := range strings.Split(*symvars, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if !prog.SymbolicGlobal(name, name) {
				fatal(fmt.Errorf("-symbolic: no global %q to unbind", name))
			}
		}
	}

	// Interrupting the process (SIGINT) cancels the analysis and still
	// reports the findings accumulated so far.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *doRepair {
		opts := []spectre.Option{
			spectre.WithSymbolic(*symbolic),
			spectre.WithStaticPass(*static),
			spectre.WithRepairStrategy(*strategy),
		}
		if *bound > 0 {
			opts = append(opts, spectre.WithBound(*bound), spectre.WithForwardHazards(*fwd))
		}
		an, err := spectre.New(opts...)
		if err != nil {
			fatal(err)
		}
		res, err := an.Repair(ctx, prog)
		if err != nil {
			if res == nil {
				fatal(err)
			}
			fmt.Fprintln(os.Stderr, "pitchfork: repair aborted:", err)
		}
		if *jsonOut {
			emit(res)
			exitClean(err == nil && res.SecretFree())
		}
		fmt.Println("repair:", res.Summary())
		if res.Outcome == spectre.RepairRepaired {
			fmt.Println(res.Cost.Table())
			fmt.Printf("  %-18s %s\n", "patch points", joinAddrs(res.FencePoints))
			if tab := res.StrategyTable(); tab != "" {
				fmt.Println("\nstrategy portfolio:")
				fmt.Println(tab)
			}
			fmt.Println("\nrepaired program:")
			fmt.Print(res.Program.Disassemble())
		} else if !res.SecretFree() && res.Before != nil && !res.Before.SecretFree {
			reportFindings(res.Before)
		}
		exitClean(err == nil && res.SecretFree())
	}

	if *bound > 0 {
		an, err := spectre.New(
			spectre.WithBound(*bound),
			spectre.WithForwardHazards(*fwd),
			spectre.WithStopAtFirst(!*all),
			spectre.WithSymbolic(*symbolic),
			spectre.WithStaticPass(*static),
		)
		if err != nil {
			fatal(err)
		}
		rep, err := an.Run(ctx, prog)
		if rep == nil {
			fatal(err)
		}
		// A non-nil report alongside an error means cancellation: the
		// partial findings are reported, but the run must not pass as
		// clean.
		if err != nil {
			fmt.Fprintln(os.Stderr, "pitchfork: analysis interrupted; results are partial:", err)
		}
		if *jsonOut {
			emit(rep)
			exitClean(rep.SecretFree && err == nil)
		}
		fmt.Println(rep.Summary())
		reportStatic(rep)
		reportSolver(rep)
		if !rep.SecretFree {
			reportFindings(rep)
		}
		exitClean(rep.SecretFree && err == nil)
	}

	an, err := spectre.New(
		spectre.WithStopAtFirst(!*all),
		spectre.WithSymbolic(*symbolic),
		spectre.WithStaticPass(*static),
	)
	if err != nil {
		fatal(err)
	}
	pr, err := an.RunProcedure(ctx, prog)
	if pr == nil || pr.Phase1 == nil {
		fatal(err)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pitchfork: analysis interrupted; results are partial:", err)
	}
	if *jsonOut {
		emit(pr)
		exitClean(pr.SecretFree() && err == nil)
	}
	fmt.Printf("phase 1 (bound %d, no hazard detection): %s\n", spectre.BoundNoHazards, pr.Phase1.Summary())
	reportStatic(pr.Phase1)
	reportSolver(pr.Phase1)
	if !pr.Phase1.SecretFree {
		reportFindings(pr.Phase1)
		os.Exit(1)
	}
	if pr.Phase2 == nil {
		// Cancelled after a clean phase 1, before phase 2 completed.
		os.Exit(1)
	}
	fmt.Printf("phase 2 (bound %d, hazard detection):    %s\n", spectre.BoundWithHazards, pr.Phase2.Summary())
	if !pr.Phase2.SecretFree {
		reportFindings(pr.Phase2)
		os.Exit(1)
	}
	if err != nil {
		os.Exit(1)
	}
	fmt.Println("speculative constant-time at the analyzed bounds")
}

func emit(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

func exitClean(clean bool) {
	if !clean {
		os.Exit(1)
	}
	os.Exit(0)
}

func reportStatic(rep *spectre.Report) {
	s := rep.Static
	if s == nil {
		return
	}
	if s.Safe {
		fmt.Printf("static pre-analysis: safe (%d of %d points reachable); explorer skipped\n", s.Reachable, s.Points)
		return
	}
	note := ""
	if s.ComputedFlow {
		note = " [computed control flow: fully conservative]"
	}
	fmt.Printf("static pre-analysis: %d suspicious point(s) of %d reachable%s: %s\n",
		len(s.Suspicious), s.Reachable, note, joinAddrs(s.Suspicious))
}

func reportSolver(rep *spectre.Report) {
	s := rep.Solver
	if s == nil {
		return
	}
	fmt.Printf("solver: %d queries (%d cache hits, %d definite-unsat, %d domain-narrowed), %d candidates searched\n",
		s.Queries, s.CacheHits, s.DefiniteUnsats, s.PropPruned, s.ProbeIters)
}

func reportFindings(rep *spectre.Report) {
	for i, f := range rep.Findings {
		fmt.Printf("violation %d: %s\n", i+1, f)
		if len(f.Schedule) > 0 && len(f.Schedule) <= 40 {
			fmt.Printf("  schedule: %s\n", strings.Join(f.Schedule, "; "))
		}
		fmt.Printf("  trace: %s\n", f.Trace)
	}
}

func joinAddrs(as []spectre.Addr) string {
	parts := make([]string, len(as))
	for i, a := range as {
		parts[i] = fmt.Sprintf("%d", a)
	}
	return strings.Join(parts, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pitchfork:", err)
	os.Exit(1)
}
