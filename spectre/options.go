package spectre

import "pitchfork/internal/pitchfork"

// The speculation bounds of the paper's §4.2.1 evaluation procedure.
const (
	// BoundNoHazards is the bound used without forwarding-hazard
	// detection (phase 1): 250.
	BoundNoHazards = pitchfork.BoundNoHazards
	// BoundWithHazards is the reduced bound that keeps hazard-aware
	// analysis tractable (phase 2): 20.
	BoundWithHazards = pitchfork.BoundWithHazards
	// DefaultBound is the bound an Analyzer uses when WithBound is not
	// given: the tractable hazard-aware bound.
	DefaultBound = BoundWithHazards
)

// Option configures an Analyzer. Options are a thin layer over the
// serializable Config struct: each one sets the corresponding field,
// and New validates the result exactly as NewFromConfig does, so
// New(opts…) and NewFromConfig(cfg) are two spellings of the same
// construction.
type Option func(*Config)

// WithBound sets the speculation bound: the maximum reorder-buffer
// size, hence the maximum speculation depth. The paper's evaluation
// uses 250 without forwarding-hazard detection and 20 with it. The
// bound must be positive.
func WithBound(n int) Option {
	return func(c *Config) { c.Bound = n }
}

// WithForwardHazards enables or disables exploration of
// store-forwarding outcomes (Spectre v4 and the paper's "f" findings).
// It is enabled by default; disabling it makes deep bounds like
// BoundNoHazards tractable.
func WithForwardHazards(on bool) Option {
	return func(c *Config) { c.ForwardHazards = on }
}

// WithMaxStates bounds the number of explored machine states. Zero
// restores the exploration default; negative is rejected.
func WithMaxStates(n int) Option {
	return func(c *Config) { c.MaxStates = n }
}

// WithMaxRetired bounds the retired instructions per exploration path
// (the budget that terminates non-halting programs). Zero restores the
// default; negative is rejected.
func WithMaxRetired(n int) Option {
	return func(c *Config) { c.MaxRetired = n }
}

// WithStopAtFirst stops each run at the first finding.
func WithStopAtFirst(on bool) Option {
	return func(c *Config) { c.StopAtFirst = on }
}

// WithSymbolic switches the analyzer to symbolic mode: registers and
// memory cells bound with the builder's Symbolic* methods become
// unconstrained solver variables, execution tracks path conditions and
// forks at input-dependent branches, and each finding carries a
// witness assignment. Like the original tool, symbolic mode covers
// conditional-branch speculation and store-forwarding variants
// (Spectre v1, v1.1, v4), with computed control flow followed
// architecturally.
func WithSymbolic(on bool) Option {
	return func(c *Config) { c.Symbolic = on }
}

// WithStaticPass runs the flow-sensitive speculative-taint
// pre-analysis (internal/taint) before exploration. A program the
// static pass proves safe is certified without constructing an
// explorer — Report.Mode is ModeStatic and Report.Static carries the
// verdict; O(|program|) instead of O(schedules). A program it cannot
// prove safe is explored as usual in hybrid mode, and the report
// carries the static verdict alongside the findings, which are
// identical with and without the pass. Repair ignores the pass: its
// result is identical with and without it. Off by default.
func WithStaticPass(on bool) Option {
	return func(c *Config) { c.StaticPass = on }
}

// WithRepairStrategy selects the mitigation Repair synthesizes:
// StrategyFence (the paper's §3.6 fences), StrategyMask (SLH-style
// speculative load hardening), StrategyRet (Figure 13 retpolines for
// flagged returns), or StrategyAuto (the default) to run the whole
// portfolio and keep the cheapest certified patch by estimated
// sequential cost; "" also selects StrategyAuto. Whatever the
// strategy, every patch is re-verified secret-free by the configured
// detector and certified behaviour-preserving modulo the rewrite's
// address map.
func WithRepairStrategy(s string) Option {
	return func(c *Config) { c.RepairStrategy = s }
}
