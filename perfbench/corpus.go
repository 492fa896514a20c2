package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"pitchfork/internal/testcases"
	"pitchfork/spectre"
)

// The corpus workload is a CI-style serial sweep of the 35-program
// corpus through the public spectre API: compile, concrete Run, static
// pass, hybrid Run, Repair (auto portfolio), and symbolic Run with the
// attacker index x unconstrained.

// corpusProgram is one corpus entry: CTL source, or a gallery figure in
// builder wire form.
type corpusProgram struct {
	name   string
	source string // CTL; empty for gallery figures
	wire   []byte // gallery figures only
	label  label
}

// loadCorpus returns the Kocher, spec-only v1, v1.1 and gallery
// programs with their oracle labels.
func loadCorpus() ([]corpusProgram, error) {
	var out []corpusProgram
	add := func(p corpusProgram) error {
		l, ok := corpusLabels[p.name]
		if !ok {
			return fmt.Errorf("no oracle label for %q", p.name)
		}
		p.label = l
		out = append(out, p)
		return nil
	}
	for _, set := range [][]testcases.Case{testcases.Kocher(), testcases.SpecOnlyV1(), testcases.V11()} {
		for _, c := range set {
			if err := add(corpusProgram{name: c.Name, source: c.Source()}); err != nil {
				return nil, err
			}
		}
	}
	for _, f := range spectre.Gallery() {
		wire, err := json.Marshal(f.Program())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.ID, err)
		}
		if err := add(corpusProgram{name: f.ID, wire: wire}); err != nil {
			return nil, err
		}
	}
	if len(out) != len(corpusLabels) {
		return nil, fmt.Errorf("corpus has %d programs, oracle %d", len(out), len(corpusLabels))
	}
	return out, nil
}

// decode compiles a CTL program or decodes a wire-form one.
func (p corpusProgram) decode() (*spectre.Program, error) {
	if p.source != "" {
		return spectre.CompileCTL(p.source, spectre.ModeC)
	}
	var prog spectre.Program
	if err := json.Unmarshal(p.wire, &prog); err != nil {
		return nil, err
	}
	return &prog, nil
}

type corpusRunner struct {
	progs                              []corpusProgram
	concrete, symbolic, hybrid, repair *spectre.Analyzer
}

func setupCorpus(seed uint64) (runner, error) {
	progs, err := loadCorpus()
	if err != nil {
		return nil, err
	}
	for _, p := range progs {
		if _, err := p.decode(); err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	r := &corpusRunner{progs: progs}
	if r.concrete, err = spectre.New(); err != nil {
		return nil, err
	}
	if r.symbolic, err = spectre.New(spectre.WithSymbolic(true)); err != nil {
		return nil, err
	}
	if r.hybrid, err = spectre.New(spectre.WithStaticPass(true)); err != nil {
		return nil, err
	}
	if r.repair, err = spectre.New(spectre.WithRepairStrategy(spectre.StrategyAuto)); err != nil {
		return nil, err
	}
	// The seed fixes the sweep order only.
	rng := rand.New(rand.NewPCG(seed, 0x636f72707573))
	rng.Shuffle(len(r.progs), func(i, j int) { r.progs[i], r.progs[j] = r.progs[j], r.progs[i] })
	return r, nil
}

func (r *corpusRunner) close() {}

func (r *corpusRunner) warmUp() error {
	_, err := r.pass(nil, nil)
	return err
}

func (r *corpusRunner) pass(tr *tracer, sm *speedMeter) (*passResult, error) {
	res := &passResult{counts: map[string]float64{}, deterministic: true}
	root := tr.start("pass", -1, -1)
	defer tr.end(root, "")
	ctx := context.Background()
	for i, p := range r.progs {
		sm.sample()
		sp := tr.start("program", root, i)
		r.program(ctx, p, res, tr, sp, i)
		tr.end(sp, "")
	}
	return res, nil
}

// program runs one corpus program through every layer and checks each
// verdict against the oracle.
func (r *corpusRunner) program(ctx context.Context, p corpusProgram, res *passResult, tr *tracer, parent, req int) {
	c := res.counts
	fail := func(what string, err error) {
		res.failed++
		fmt.Printf("corpus: %s %s: %v\n", p.name, what, err)
	}
	sp := tr.start("ct.compile", parent, req)
	prog, err := p.decode()
	tr.end(sp, "")
	res.attempted++
	if err != nil {
		fail("compile", err)
		return
	}
	c["ct.programs"]++

	// check records one analysis verdict against the oracle.
	check := func(what string, rep *spectre.Report, want label, took time.Duration) {
		res.verdicts++
		res.latencies = append(res.latencies, took)
		c["explore.states"] += float64(rep.States)
		c["explore.paths"] += float64(rep.Paths)
		if rep.Truncated {
			c["explore.budget_hits"]++
		}
		if s := rep.Solver; s != nil {
			c["solver.queries"] += float64(s.Queries)
			c["solver.cache_hits"] += float64(s.CacheHits)
			c["solver.definite_unsats"] += float64(s.DefiniteUnsats)
			c["solver.prop_pruned"] += float64(s.PropPruned)
			c["solver.probe_iters"] += float64(s.ProbeIters)
		}
		flaggedWrong := !rep.SecretFree && want.wantSecretFree()
		if (rep.Truncated || rep.Interrupted) && !flaggedWrong {
			return
		}
		res.decided++
		if rep.SecretFree != want.wantSecretFree() {
			res.wrong++
			fmt.Printf("corpus: WRONG %s %s: secretFree=%t, want %s\n", p.name, what, rep.SecretFree, want)
		}
	}
	analyze := func(name string, an *spectre.Analyzer, want label) {
		res.attempted++
		t0 := time.Now()
		sp := tr.start(name, parent, req)
		rep, err := an.Run(ctx, prog)
		tr.end(sp, "")
		took := time.Since(t0)
		if err != nil {
			fail(name, err)
			return
		}
		check(name, rep, want, took)
	}

	analyze("explore.concrete", r.concrete, p.label)

	res.attempted++
	sp = tr.start("taint.static", parent, req)
	st, err := r.hybrid.StaticReport(prog)
	tr.end(sp, "")
	if err != nil {
		fail("static", err)
	} else if st.Safe {
		c["taint.certified"]++
		if !p.label.wantSecretFree() {
			res.wrong++
			fmt.Printf("corpus: WRONG %s static: certified safe, want %s\n", p.name, p.label)
		}
	}

	analyze("explore.hybrid", r.hybrid, p.label)

	res.attempted++
	t0 := time.Now()
	sp = tr.start("repair", parent, req)
	rr, err := r.repair.Repair(ctx, prog)
	tr.end(sp, "")
	took := time.Since(t0)
	switch {
	case rr == nil:
		fail("repair", err)
	default:
		res.verdicts++
		res.latencies = append(res.latencies, took)
		c["repair.rounds"] += float64(rr.Cost.Iterations)
		c["repair.fences"] += float64(rr.Cost.Fences)
		if rr.Outcome == spectre.RepairFailed || rr.Outcome == spectre.RepairExhausted {
			break // undecided: the verification budget ran out
		}
		res.decided++
		if rr.Outcome != p.label.wantRepair() {
			res.wrong++
			fmt.Printf("corpus: WRONG %s repair: %s, want %s\n", p.name, rr.Outcome, p.label.wantRepair())
		}
	}

	if p.source != "" && !prog.SymbolicGlobal("x", "x") {
		fail("symbolic", fmt.Errorf("no global x"))
		return
	}
	analyze("explore.symbolic", r.symbolic, p.label)
}
