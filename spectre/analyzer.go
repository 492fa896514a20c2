package spectre

import (
	"context"
	"fmt"
	"iter"

	"pitchfork/internal/pitchfork"
	"pitchfork/internal/taint"
)

// Analyzer checks programs for speculative constant-time violations by
// exploring the paper's worst-case attacker schedules. An Analyzer is
// immutable after construction and safe to reuse across runs; each Run
// operates on a fresh machine built from the program.
type Analyzer struct {
	cfg Config
}

// New constructs an Analyzer from functional options. With no options
// the analyzer runs concrete-mode analysis at DefaultBound with
// forwarding-hazard detection enabled. The equivalent explicit-struct
// construction is NewFromConfig; the resolved configuration is
// available afterwards through Analyzer.Config.
func New(opts ...Option) (*Analyzer, error) {
	cfg := DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return NewFromConfig(cfg)
}

// Run analyzes the program to completion (or until the context is
// cancelled) and returns the report.
//
// Cancellation is prompt: when ctx is cancelled mid-exploration the
// partial report — findings discovered so far, with Interrupted set —
// is returned alongside the context's error.
func (a *Analyzer) Run(ctx context.Context, p *Program) (*Report, error) {
	return a.run(ctx, p, a.cfg.Bound, a.cfg.ForwardHazards, nil)
}

// Stream is Run with a streaming callback: yield is invoked
// synchronously for each finding as exploration discovers it, before
// the search continues. Returning false from yield stops the analysis
// early; the report then carries everything found up to that point
// with Interrupted set, and the returned error is nil.
func (a *Analyzer) Stream(ctx context.Context, p *Program, yield func(Finding) bool) (*Report, error) {
	if yield == nil {
		return nil, fmt.Errorf("spectre: Stream requires a non-nil yield callback")
	}
	return a.run(ctx, p, a.cfg.Bound, a.cfg.ForwardHazards, yield)
}

// Findings returns an iterator over findings, for range-over-func
// consumption:
//
//	for f := range an.Findings(ctx, prog) { … }
//
// Breaking out of the loop stops the underlying exploration. Errors
// and exploration statistics are not surfaced here; use Run or Stream
// when they matter.
func (a *Analyzer) Findings(ctx context.Context, p *Program) iter.Seq[Finding] {
	return func(yield func(Finding) bool) {
		a.Stream(ctx, p, yield) //nolint:errcheck // iterator form drops the report by design
	}
}

// ProcedureReport aggregates the two phases of the paper's §4.2.1
// evaluation procedure. Phase2 is nil when phase 1 already flagged a
// violation (or was interrupted before phase 2 could run).
type ProcedureReport struct {
	Phase1 *Report `json:"phase1"`
	Phase2 *Report `json:"phase2,omitempty"`
}

// SecretFree reports whether both phases ran to completion and came
// back clean. It is false both for flagged and for interrupted
// procedures — a cut-short run proves nothing — so callers deciding
// between "clean", "flagged", and "inconclusive" should consult
// Interrupted first.
func (pr *ProcedureReport) SecretFree() bool {
	if pr.Interrupted() {
		return false
	}
	if pr.Phase1 == nil || !pr.Phase1.SecretFree {
		return false
	}
	return pr.Phase2 != nil && pr.Phase2.SecretFree
}

// Interrupted reports whether the procedure was cut short before it
// could reach a verdict: phase 1 interrupted, or phase 1 clean but
// phase 2 missing or interrupted. A procedure that flagged a violation
// in a completed phase 1 is not interrupted — it reached its verdict.
func (pr *ProcedureReport) Interrupted() bool {
	if pr.Phase1 == nil || pr.Phase1.Interrupted {
		return true
	}
	if !pr.Phase1.SecretFree {
		return false
	}
	return pr.Phase2 == nil || pr.Phase2.Interrupted
}

// RunProcedure runs the paper's two-phase evaluation procedure
// (§4.2.1): first at BoundNoHazards without forwarding-hazard
// detection; if that phase is clean, again at BoundWithHazards with
// hazard detection. The analyzer's WithBound/WithForwardHazards
// settings are overridden by the procedure's phases; the remaining
// options apply to both.
func (a *Analyzer) RunProcedure(ctx context.Context, p *Program) (*ProcedureReport, error) {
	phase1, err := a.run(ctx, p, BoundNoHazards, false, nil)
	if err != nil || !phase1.SecretFree {
		return &ProcedureReport{Phase1: phase1}, err
	}
	phase2, err := a.run(ctx, p, BoundWithHazards, true, nil)
	return &ProcedureReport{Phase1: phase1, Phase2: phase2}, err
}

// run maps the unified configuration onto the internal detector,
// wiring context cancellation and the streaming callback into the
// exploration hooks.
func (a *Analyzer) run(ctx context.Context, p *Program, bound int, fwd bool, yield func(Finding) bool) (*Report, error) {
	if p == nil {
		return nil, fmt.Errorf("spectre: nil program")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var static *taint.Report
	if a.cfg.StaticPass {
		var err error
		static, err = staticAnalyze(p)
		if err != nil {
			return nil, fmt.Errorf("spectre: static pass: %w", err)
		}
		if static.Safe() {
			// Static fast path: the pre-analysis proved every reachable
			// point safe, so no explorer needs to run — the certificate
			// covers all speculative schedules at any bound.
			return &Report{
				Mode:           ModeStatic,
				Bound:          bound,
				ForwardHazards: fwd,
				SecretFree:     true,
				Findings:       make([]Finding, 0),
				Static:         staticWire(static),
			}, nil
		}
	}
	opts := pitchfork.Options{Bound: bound, ForwardHazards: fwd, StopAtFirst: a.cfg.StopAtFirst}
	if yield != nil {
		opts.OnViolation = func(v pitchfork.Violation) bool {
			return yield(findingOf(v))
		}
	}
	irep, err := a.detect(ctx, p, opts)
	if err != nil {
		return nil, fmt.Errorf("spectre: %w", err)
	}
	rep := reportOf(irep, bound, fwd)
	if static != nil {
		rep.Static = staticWire(static)
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		rep.Interrupted = true
		return rep, ctxErr
	}
	return rep, nil
}

// detect runs the configured detector, concrete or symbolic, on p. o
// carries the run's own settings (bound, hazards, stop-at-first,
// streaming hook); detect adds the analyzer-wide budgets and lets ctx
// cancellation interrupt the exploration.
func (a *Analyzer) detect(ctx context.Context, p *Program, o pitchfork.Options) (pitchfork.Report, error) {
	o.MaxStates, o.MaxRetired = a.cfg.MaxStates, a.cfg.MaxRetired
	o.Interrupt = func() bool { return ctx.Err() != nil }
	if a.cfg.Symbolic {
		return pitchfork.AnalyzeSymbolic(p.symMachine(), o)
	}
	return pitchfork.Analyze(p.machine(), o)
}
