// Package pitchfork is the paper's detector (§4): it checks programs
// for speculative constant-time (SCT) violations by executing them
// under worst-case attacker schedules and flagging observations whose
// labels are secret.
//
// Both modes run on one domain-parameterized speculation engine — the
// DT(n) schedule strategy, work-stealing pool, fingerprint dedup,
// budgets, and deterministic violation merge of internal/sched —
// instantiated over two value domains:
//
//   - Concrete mode (Analyze): the program runs on the reference
//     machine of internal/core with concrete, labeled inputs. Sound
//     and exact for the given inputs.
//
//   - Symbolic mode (AnalyzeSymbolic): public inputs may be
//     unconstrained symbolic variables (the attacker-controlled index
//     of the Kocher cases); the symbolic domain of symbolic.go tracks
//     path conditions, forks at input-dependent branches, and
//     concretizes addresses with a leak-hunting policy, mirroring how
//     the original tool drives the angr engine. Like the original,
//     symbolic mode exercises a subset of the semantics:
//     conditional-branch speculation and store-forwarding variants
//     (Spectre v1, v1.1, v4), with indirect jumps and returns
//     followed architecturally.
package pitchfork

import (
	"fmt"

	"pitchfork/internal/core"
	"pitchfork/internal/sched"
	"pitchfork/internal/symx"
)

// Options configure an analysis.
type Options struct {
	// Bound is the speculation bound. The paper's evaluation uses 250
	// without forwarding-hazard detection and 20 with it (§4.2.1).
	Bound int
	// ForwardHazards enables Spectre v4 style schedules.
	ForwardHazards bool
	// MaxStates and MaxRetired bound the exploration (0 = defaults).
	MaxStates  int
	MaxRetired int
	// StopAtFirst stops at the first violation.
	StopAtFirst bool
	// Workers is the number of exploration goroutines in either mode
	// (0 or 1 = serial; n > 1 = work-stealing pool with violations
	// reported in deterministic schedule order). Both the concrete and
	// the symbolic domain run on the same engine and pool.
	Workers int
	// DedupEntries, when positive, bounds a machine-fingerprint table
	// that prunes re-converged exploration states in either mode
	// (0 = off); symbolic fingerprints include the path condition. See
	// sched.Options.DedupEntries for the trade-offs.
	DedupEntries int
	// OnViolation, if non-nil, is invoked synchronously as each
	// violation is found, before exploration continues. Returning false
	// stops the analysis early; everything found so far stays in the
	// report. This is the streaming hook the public spectre package
	// builds on.
	OnViolation func(Violation) bool
	// Interrupt, if non-nil, is polled once per explored state.
	// Returning true aborts the analysis promptly with the partial
	// report and Report.Interrupted set — how context cancellation
	// reaches the explorers.
	Interrupt func() bool
}

// The two bounds of the paper's evaluation procedure (§4.2.1).
const (
	// BoundNoHazards is the speculation bound used without
	// forwarding-hazard detection.
	BoundNoHazards = 250
	// BoundWithHazards is the reduced bound that keeps hazard-aware
	// analysis tractable.
	BoundWithHazards = 20
)

// Violation is a detected SCT violation.
type Violation struct {
	Obs      core.Observation
	Kind     sched.VariantKind
	Schedule core.Schedule // attacker directive schedule (both modes)
	Trace    core.Trace
	Model    map[string]uint64 // symbolic mode: a witness assignment
	PC       uint64
	// Sources are the speculation primitives (branches, unresolved
	// store addresses, in-flight returns) still pending when the leak
	// was detected — the fence-repair synthesis anchors.
	Sources []sched.Source
}

// String renders the violation.
func (v Violation) String() string {
	s := fmt.Sprintf("%s: %s", v.Kind, v.Obs)
	if len(v.Model) > 0 {
		s += fmt.Sprintf(" (witness %v)", v.Model)
	}
	return s
}

// Report aggregates an analysis run.
type Report struct {
	Violations []Violation
	States     int
	Paths      int
	Truncated  bool
	// Interrupted reports whether Options.Interrupt (or an OnViolation
	// callback returning false) cut the analysis short.
	Interrupted bool
	Mode        string
	// Workers is the number of exploration goroutines the run used.
	Workers int
	// DedupHits counts states pruned by fingerprint deduplication.
	DedupHits int
	// Solver carries the constraint engine's per-analysis counters in
	// symbolic mode; nil in concrete mode. Under parallel runs the
	// cache-hit/fresh-solve split depends on worker interleaving (the
	// results never do), so these are diagnostics, not part of the
	// deterministic result surface.
	Solver *symx.SolverStats
}

// SecretFree reports whether the program was found SCT-clean at the
// analyzed bound.
func (r Report) SecretFree() bool { return len(r.Violations) == 0 }

// Summary renders a one-line result.
func (r Report) Summary() string {
	if r.SecretFree() {
		return fmt.Sprintf("clean (%s mode, %d states, %d paths)", r.Mode, r.States, r.Paths)
	}
	return fmt.Sprintf("%d violation(s) (%s mode, %d states, %d paths); first: %s",
		len(r.Violations), r.Mode, r.States, r.Paths, r.Violations[0])
}

// violationOf lifts an engine violation into the detector's type.
func violationOf(v sched.Violation) Violation {
	return Violation{
		Obs:      v.Obs,
		Kind:     v.Kind,
		Schedule: v.Schedule,
		Trace:    v.Trace,
		Model:    v.Model,
		PC:       uint64(v.PC),
		Sources:  v.Sources,
	}
}

// Analyze runs the concrete-mode detector on a machine configuration.
func Analyze(m *core.Machine, opts Options) (Report, error) {
	sopts := sched.Options{
		Bound:          opts.Bound,
		ForwardHazards: opts.ForwardHazards,
		MaxStates:      opts.MaxStates,
		MaxRetired:     opts.MaxRetired,
		StopAtFirst:    opts.StopAtFirst,
		Workers:        opts.Workers,
		DedupEntries:   opts.DedupEntries,
		KeepSchedules:  true,
		Interrupt:      opts.Interrupt,
	}
	if opts.OnViolation != nil {
		sopts.OnViolation = func(v sched.Violation) bool {
			return opts.OnViolation(violationOf(v))
		}
	}
	e, err := sched.NewExplorer(sopts)
	if err != nil {
		return Report{}, err
	}
	res := e.Explore(m)
	rep := Report{
		States: res.States, Paths: res.Paths,
		Truncated: res.Truncated, Interrupted: res.Interrupted,
		Mode: "concrete", Workers: res.Workers, DedupHits: res.DedupHits,
	}
	for _, v := range res.Violations {
		rep.Violations = append(rep.Violations, violationOf(v))
	}
	return rep, nil
}

// AnalyzeProcedure runs the paper's two-phase evaluation procedure
// (§4.2.1) on a machine: first without forwarding-hazard detection at
// BoundNoHazards; if clean, again with hazard detection at
// BoundWithHazards. The returned reports correspond to the two phases
// (the second is zero-valued if the first already flagged).
func AnalyzeProcedure(mk func() *core.Machine, opts Options) (phase1, phase2 Report, err error) {
	o1 := opts
	o1.Bound = BoundNoHazards
	o1.ForwardHazards = false
	phase1, err = Analyze(mk(), o1)
	if err != nil || !phase1.SecretFree() {
		return phase1, Report{}, err
	}
	o2 := opts
	o2.Bound = BoundWithHazards
	o2.ForwardHazards = true
	phase2, err = Analyze(mk(), o2)
	return phase1, phase2, err
}
