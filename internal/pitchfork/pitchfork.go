// Package pitchfork is the paper's detector (§4): it checks programs
// for speculative constant-time (SCT) violations by executing them
// under worst-case attacker schedules and flagging observations whose
// labels are secret.
//
// Both modes run on one domain-parameterized speculation engine — the
// DT(n) schedule strategy, depth-first driver, fingerprint dedup and
// budgets of internal/sched — and
// on one copy of the semantics: internal/core's State applies every
// fetch, execute and retire rule over a value domain. The two modes
// differ only in that domain:
//
//   - Concrete mode (Analyze): the program runs on the reference
//     machine of internal/core with concrete, labeled inputs. Sound
//     and exact for the given inputs.
//
//   - Symbolic mode (AnalyzeSymbolic): public inputs may be
//     unconstrained symbolic variables (the attacker-controlled index
//     of the Kocher cases); the symbolic domain of symbolic.go
//     evaluates over expressions, concretizes addresses with a
//     leak-hunting policy that extends the path condition, and splits
//     the machine at input-dependent branches, mirroring how the
//     original tool drives the angr engine. Like the original,
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

// Options configure an analysis: the exploration engine's options,
// which both modes take as they are. The paper's evaluation runs Bound
// 250 without ForwardHazards and 20 with them (§4.2.1). The visited
// set prunes revisited states in either mode; symbolic fingerprints
// include the path condition.
type Options = sched.Options

// The two bounds of the paper's evaluation procedure (§4.2.1).
const (
	// BoundNoHazards is the speculation bound used without
	// forwarding-hazard detection.
	BoundNoHazards = 250
	// BoundWithHazards is the reduced bound that keeps hazard-aware
	// analysis tractable.
	BoundWithHazards = 20
)

// Violation is a detected SCT violation. In symbolic mode its Model
// is a witness assignment of the symbolic inputs.
type Violation = sched.Violation

// Report aggregates an analysis run: the engine's result and the mode
// it ran in.
type Report struct {
	sched.Result
	Mode string
	// Solver carries the constraint engine's per-analysis counters in
	// symbolic mode; nil in concrete mode. Each analysis owns its
	// solver, so two runs of one program report equal counters.
	Solver *symx.SolverStats
}

// Summary renders a one-line result.
func (r Report) Summary() string {
	if r.SecretFree() {
		return fmt.Sprintf("clean (%s mode, %d states, %d paths)", r.Mode, r.States, r.Paths)
	}
	return fmt.Sprintf("%d violation(s) (%s mode, %d states, %d paths); first: %s",
		len(r.Violations), r.Mode, r.States, r.Paths, r.Violations[0])
}

// Analyze runs the concrete-mode detector on a machine configuration.
func Analyze(m *core.Machine, opts Options) (Report, error) {
	return analyze(m, "concrete", opts)
}

// AnalyzeSymbolic runs the symbolic-mode detector on the unified
// engine: the same worst-case schedule strategy, visited set, and
// budgets as concrete mode, over the symbolic domain.
func AnalyzeSymbolic(m *SymMachine, opts Options) (Report, error) {
	sm := newSymMachine(m, opts.Bound)
	rep, err := analyze(sm, "symbolic", opts)
	if err != nil {
		return rep, err
	}
	stats := sm.solver.Stats()
	rep.Solver = &stats
	return rep, nil
}

// analyze explores m, a machine of the named mode, and reports what the
// engine found.
func analyze(m sched.Machine, mode string, opts Options) (Report, error) {
	e, err := sched.NewExplorer(opts)
	if err != nil {
		return Report{}, fmt.Errorf("pitchfork: %w", err)
	}
	return Report{Result: e.Explore(m), Mode: mode}, nil
}
