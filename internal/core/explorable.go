package core

import "pitchfork/internal/isa"

// TransientView is the domain-independent projection of one
// reorder-buffer entry: exactly the fields the schedule strategy, the
// speculation-source collector, and the variant classifier consult.
// How the entry's values are represented (labeled words, symbolic
// expressions) stays inside the domain.
type TransientView struct {
	// Kind is the transient form (Table 1's transient column).
	Kind TKind
	// Resolved reports whether the entry needs no further execute steps
	// before it can retire.
	Resolved bool
	// ValKnown and AddrKnown are the store resolution flags (execute
	// i : value / execute i : addr each resolve one half).
	ValKnown  bool
	AddrKnown bool
	// PP is the program point the instruction was fetched at.
	PP isa.Addr
	// FwdSecret marks a resolved load that forwarded secret-labeled
	// data from a buffered store — the classifier's v1.1 signal.
	FwdSecret bool
}

// FillView projects t into v, secret testing a value for a secret
// label: the body of every domain's View. A view returned through
// memory would cost the engine's hottest loop a copy per decision, so
// View fills it in place — and each domain writes View itself, since
// a method promoted from generic State is reached through a wrapper
// that cannot inline it. Only resolved loads (TValue) set FromLoad.
func FillView[V any](v *TransientView, t *TransientOf[V], secret func(V) bool) {
	v.Kind, v.Resolved, v.PP = t.Kind, t.Resolved(), t.PP
	v.ValKnown, v.AddrKnown = t.ValKnown, t.AddrKnown
	v.FwdSecret = t.FromLoad && t.Dep != NoDep && secret(t.Val)
}

// Successor is one outcome of applying a directive. Deterministic
// steps yield exactly one successor, the receiver mutated in place. A
// domain may fork on a single directive — the symbolic domain forks a
// branch whose condition is input-dependent into every feasible world
// — in which case each successor is an independent machine and D
// disambiguates the arm (Directive.Arm), keeping every completed
// path's schedule distinct.
type Successor struct {
	// M is the machine after the step.
	M Explorable
	// D is the directive as recorded in the schedule for this arm.
	D Directive
	// Obs are the observations the step produced.
	Obs []Observation
}

// Explorable is a machine configuration as the exploration engine of
// internal/sched drives it: a value domain instantiating the paper's
// directive semantics. Both machines implement it over an embedded
// State, which supplies every method but Fork, View, Fingerprint,
// Witness and Successors. Implementations are mutable; Fork copies them at
// exploration fork points. All scheduling policy lives in the engine —
// a machine only applies single directives and reports its shape.
type Explorable interface {
	// Fork returns an independent copy.
	Fork() Explorable
	// Instr returns the instruction at the fetch head, or nil at a halt
	// point. It must not be modified.
	Instr() *isa.Instr
	// RetiredCount returns the number of retired instructions (the
	// MaxRetired budget input).
	RetiredCount() int
	// BufLen, BufMin, and BufMax describe the reorder buffer's
	// contiguous index range; for an empty buffer BufMax < BufMin,
	// with BufMax+1 the next insertion index.
	BufLen() int
	BufMin() int
	BufMax() int
	// View projects the buffer entry at index i.
	View(i int) (TransientView, bool)
	// Branches lists the indices of the pending branches (TBr entries),
	// in ascending order. The slice is valid until the machine's next
	// step and must not be modified.
	Branches() []int
	// RSBTop reports top(σ), the return-stack prediction, if present.
	RSBTop() (isa.Addr, bool)
	// PeekJmpi resolves the architectural target of an indirect jump
	// about to be fetched, if its operands (and, symbolically, its
	// target value) are available.
	PeekJmpi(in *isa.Instr) (isa.Addr, bool)
	// PeekRet resolves the architectural return target through the
	// in-memory return address, for rets fetched under an empty RSB.
	PeekRet() (isa.Addr, bool)
	// Fingerprint hashes the full configuration (for the symbolic
	// domain: including the path condition) to 64 bits; equal
	// configurations hash equal, so the dedup table can prune
	// re-converged exploration states.
	Fingerprint() uint64
	// Witness returns a satisfying assignment of the domain's symbolic
	// inputs reaching the current state, or nil (always nil for the
	// concrete domain, where the inputs are the given ones).
	Witness() map[string]uint64
	// Successors applies one directive. A nil error means it applied,
	// with the successor states returned; an error means the directive
	// stalls in this configuration and the machine is unchanged. The
	// returned slice is only valid until the next Successors call on
	// any machine of this lineage — implementations return an internal
	// scratch buffer so deterministic steps stay allocation-free.
	Successors(d Directive) ([]Successor, error)
}
