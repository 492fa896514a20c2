package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"pitchfork/internal/core"
	"pitchfork/internal/crypto"
	"pitchfork/internal/ct"
	"pitchfork/internal/pitchfork"
)

// The table2 workload runs the paper's §4.2.1 two-phase procedure over
// the 8 Table 2 builds, as crypto.Analyze does, at the shipped defaults:
// serial, no dedup, the default 200 000-state budget. The phases are
// timed separately through pitchfork.Analyze.

type table2Build struct {
	c    crypto.Case
	mode ct.Mode
	want table2Cell
}

func (b table2Build) name() string { return b.c.Name + "/" + b.mode.String() }

type table2Runner struct {
	builds []table2Build
}

func setupTable2(seed uint64) (runner, error) {
	var builds []table2Build
	for _, c := range crypto.Cases() {
		cells, ok := table2Cells[c.Name]
		if !ok {
			return nil, fmt.Errorf("no oracle cell for case %q", c.Name)
		}
		for i, mode := range []ct.Mode{ct.ModeC, ct.ModeFaCT} {
			if _, err := c.Build(mode); err != nil {
				return nil, fmt.Errorf("%s/%s: %w", c.Name, mode, err)
			}
			builds = append(builds, table2Build{c: c, mode: mode, want: cells[i]})
		}
	}
	if len(builds) != 2*len(table2Cells) {
		return nil, fmt.Errorf("%d builds, oracle has %d", len(builds), 2*len(table2Cells))
	}
	// The seed fixes the order the builds are analyzed in; the set of
	// builds, and every verdict and count, do not depend on it.
	rng := rand.New(rand.NewPCG(seed, 0x7461626c6532))
	rng.Shuffle(len(builds), func(i, j int) { builds[i], builds[j] = builds[j], builds[i] })
	return &table2Runner{builds: builds}, nil
}

func (r *table2Runner) close() {}

// warmUp runs every build through both phases with a small state
// budget: every code path of a pass, at a fraction of its cost.
func (r *table2Runner) warmUp() error {
	for _, b := range r.builds {
		comp, err := b.c.Build(b.mode)
		if err != nil {
			return err
		}
		for _, opts := range []pitchfork.Options{
			{Bound: pitchfork.BoundNoHazards, StopAtFirst: true, MaxStates: table2WarmStates},
			{Bound: pitchfork.BoundWithHazards, ForwardHazards: true, StopAtFirst: true, MaxStates: table2WarmStates},
		} {
			if _, err := pitchfork.Analyze(core.New(comp.Prog), opts); err != nil {
				return err
			}
		}
	}
	return nil
}

// table2WarmStates is the state budget of a warm-up analysis.
const table2WarmStates = 2000

func (r *table2Runner) pass(tr *tracer, sm *speedMeter) (*passResult, error) {
	res := &passResult{counts: map[string]float64{}, deterministic: true}
	c := res.counts
	root := tr.start("pass", -1, -1)
	defer tr.end(root, "")
	for i, b := range r.builds {
		sm.sample()
		res.attempted++
		t0 := time.Now()
		sp := tr.start("build", root, i)
		cell, decided, err := r.analyze(b, tr, sm, sp, i, c)
		tr.end(sp, "")
		res.latencies = append(res.latencies, time.Since(t0))
		if err != nil {
			res.failed++
			fmt.Printf("table2: %s: %v\n", b.name(), err)
			continue
		}
		res.verdicts++
		c["ct.programs"]++
		if decided {
			res.decided++
			if cell != b.want {
				res.wrong++
				fmt.Printf("table2: WRONG %s: got %s, want %s\n", b.name(), cell, b.want)
			}
		}
	}
	return res, nil
}

// analyze is crypto.Analyze with each call wrapped in a span. A cell is
// decided when a phase found a leak, or when both phases finished
// without hitting the state budget.
func (r *table2Runner) analyze(b table2Build, tr *tracer, sm *speedMeter, parent, req int, c map[string]float64) (table2Cell, bool, error) {
	sp := tr.start("ct.compile", parent, req)
	comp, err := b.c.Build(b.mode)
	tr.end(sp, "")
	if err != nil {
		return cellClean, false, err
	}
	phase := func(name string, opts pitchfork.Options) (pitchfork.Report, error) {
		sp := tr.start(name, parent, req)
		opts.Interrupt = sm.poller(tr, sp, req)
		rep, err := pitchfork.Analyze(core.New(comp.Prog), opts)
		tr.end(sp, "")
		c["explore.states"] += float64(rep.States)
		c["explore.paths"] += float64(rep.Paths)
		if rep.Truncated {
			c["explore.budget_hits"]++
		}
		return rep, err
	}
	p1, err := phase("explore.phase1", pitchfork.Options{
		Bound:       pitchfork.BoundNoHazards,
		StopAtFirst: true,
	})
	if err != nil {
		return cellClean, false, err
	}
	if !p1.SecretFree() {
		return cellFlagged, true, nil
	}
	p2, err := phase("explore.phase2", pitchfork.Options{
		Bound:          pitchfork.BoundWithHazards,
		ForwardHazards: true,
		StopAtFirst:    true,
	})
	if err != nil {
		return cellClean, false, err
	}
	if !p2.SecretFree() {
		return cellFwd, true, nil
	}
	return cellClean, !p1.Truncated && !p2.Truncated, nil
}
