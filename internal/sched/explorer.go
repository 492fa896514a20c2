// Package sched implements Pitchfork's worst-case schedule generation
// (§4.1 of the paper, formalized as the tool schedules DT(n) of
// Def. B.18) as a depth-first exploration over a speculative machine.
//
// The strategy, per the paper:
//
//   - fetch eagerly until the reorder buffer reaches the speculation
//     bound, retiring only as necessary to fetch;
//   - at each conditional branch, fork schedules for both guesses and
//     execute the *oldest* in-flight branch as late as possible,
//     maximizing its misprediction window (younger branches nested in
//     that window resolve eagerly once other work drains, so their
//     observations and rollbacks land inside it);
//   - execute indirect jumps as soon as their targets resolve — the
//     tool follows computed control flow architecturally, which is
//     also what opens the speculative stale-return window (Fig. 10);
//   - with forwarding-hazard detection enabled, defer store address
//     resolution and fork each load over all forwarding outcomes: read
//     (possibly stale) memory now, or first resolve the address of one
//     of the pending stores;
//   - execute everything else eagerly and in program order.
//
// Soundness (Thm. B.20): a secret-labeled observation under any
// schedule implies one under a schedule in this set, so exploring only
// these schedules suffices to detect SCT violations up to the bound.
//
// The engine is parameterized over a value domain (see domain.go): the
// same strategy drives the concrete reference machine of internal/core
// and the symbolic machine of internal/pitchfork. Domains may fork on
// a single directive (a symbolic branch condition splits into its
// feasible worlds); the engine treats every fork point uniformly.
//
// Each exploration path keeps a settled-prefix cursor into its reorder
// buffer: every entry below it is resolved and not a fence, or a
// pending branch, so the strategy would pass it over on every
// decision. The ascending scan for the next eager step starts at the
// cursor, and the young-to-old branch pass walks the reorder buffer's
// pending-branch index (Machine.Branches), so a decision costs the
// entries that can still act and the pending branches, not the whole
// buffer (see executePhase).
//
// At the bound, one extra arm resolves the oldest pending branch early,
// so that a young branch's body still fits (see executePhase). That a
// leak found at bound n is found at every larger one (Thm. B.20) is
// checked on the corpora and the gallery, not proven: only an
// exhaustive run with Result.BoundBlocked 0 explores the same tree at
// every larger bound.
//
// An exploration runs on one goroutine, depth-first. A caller uses
// several cores by running several explorations at once: an Explorer
// keeps no per-run state, so one Explorer may serve them all. Each
// exploration prunes the states whose configuration it has already
// explored, in either domain, through a visited set of O(1)
// fingerprints (core.State.HashState) that MaxStates bounds. A clean
// verdict rests on the bound and on that 64-bit key: a collision would
// prune a new state, at odds of about n²/2⁶⁵ for n explored states
// (~10⁻¹¹ at 20 000).
package sched

import (
	"fmt"

	"pitchfork/internal/core"
	"pitchfork/internal/isa"
)

// Options configure an exploration.
type Options struct {
	// Bound is the speculation bound: the maximum reorder-buffer size,
	// hence the maximum speculation depth. The paper runs 250 without
	// forwarding-hazard detection and 20 with it.
	Bound int
	// ForwardHazards enables exploration of store-forwarding outcomes
	// (Spectre v4 and the paper's "f" findings). Off, stores resolve
	// addresses eagerly and only v1/v1.1 schedules are generated.
	ForwardHazards bool
	// MaxStates bounds the number of explored states (forked paths ×
	// steps); 0 means DefaultMaxStates.
	MaxStates int
	// MaxRetired bounds retired instructions per path; 0 means
	// DefaultMaxRetired.
	MaxRetired int
	// StopAtFirst stops the exploration at the first violation.
	StopAtFirst bool
	// NoDedup turns off the visited set (see Explore). It exists for
	// in-module tests that measure the undeduplicated tree or compare
	// it against the default; no public configuration reaches it.
	NoDedup bool
	// OnViolation, if non-nil, is invoked synchronously as each
	// violation is recorded, before exploration continues. Returning
	// false stops the exploration early, like StopAtFirst.
	OnViolation func(Violation) bool
	// Interrupt, if non-nil, is polled once per explored state.
	// Returning true aborts the exploration; the violations found so
	// far remain in the result and Result.Interrupted is set.
	Interrupt func() bool
}

// DefaultMaxStates and DefaultMaxRetired are the exploration budgets
// used when Options leaves them zero.
const (
	DefaultMaxStates  = 200_000
	DefaultMaxRetired = 20_000
)

// Violation is one detected SCT violation: a secret-labeled
// observation reachable under a worst-case schedule.
type Violation struct {
	Obs      core.Observation
	Schedule core.Schedule // schedule prefix that produced it
	Trace    core.Trace    // observation trace up to and including Obs
	Kind     VariantKind   // heuristic Spectre-variant classification
	PC       isa.Addr      // program point of the instruction that produced Obs
	// Sources are the speculation primitives still unresolved when the
	// leak was detected — the guards the leaking instruction raced
	// ahead of. Fence-repair synthesis uses them to place fences at
	// the speculation source rather than at the leak.
	Sources []Source
	// Model is a witness assignment of the domain's symbolic inputs
	// reaching the leak (nil in the concrete domain).
	Model map[string]uint64
}

// SourceKind discriminates the speculation primitives a leak can hide
// behind.
type SourceKind uint8

const (
	// SrcBranch is an unresolved conditional branch (Spectre v1/v1.1).
	SrcBranch SourceKind = iota
	// SrcStore is a store whose address is still unresolved — the
	// stale-load window of Spectre v4 and the forwarding hazards.
	SrcStore
	// SrcRet is an in-flight return: its target is an RSB (or
	// attacker) prediction until the return-address load commits.
	SrcRet
)

// String names the source kind in the wire vocabulary.
func (k SourceKind) String() string {
	switch k {
	case SrcBranch:
		return "branch"
	case SrcStore:
		return "store"
	case SrcRet:
		return "return"
	}
	return "unknown"
}

// Source is one speculation source of a violation: the kind of guard
// and the program point of the guarding instruction. For the store of
// a call expansion (the return-address push) PC names the call itself.
type Source struct {
	Kind SourceKind
	PC   isa.Addr
}

// String renders the source, e.g. "branch@4".
func (s Source) String() string { return fmt.Sprintf("%s@%d", s.Kind, s.PC) }

// specSources collects the unresolved speculation primitives of the
// machine's reorder buffer, oldest first, deduplicated by (kind, pc).
func specSources(m Machine) []Source {
	// Violations are hot enough for a map allocation here to show up in
	// profiles; the slice stays tiny (bounded by the reorder buffer), so
	// a linear scan dedups cheaper than a map.
	var out []Source
	add := func(s Source) {
		for _, have := range out {
			if have == s {
				return
			}
		}
		out = append(out, s)
	}
	for i := m.BufMin(); i <= m.BufMax(); i++ {
		t, ok := m.View(i)
		if !ok {
			continue
		}
		switch t.Kind {
		case core.TBr:
			add(Source{Kind: SrcBranch, PC: t.PP})
		case core.TStore:
			if !t.AddrKnown {
				add(Source{Kind: SrcStore, PC: t.PP})
			}
		case core.TRet:
			add(Source{Kind: SrcRet, PC: t.PP})
		}
	}
	return out
}

// String renders the violation compactly, with the witness when the
// domain has one.
func (v Violation) String() string {
	s := fmt.Sprintf("%s: %s at pc %d", v.Kind, v.Obs, v.PC)
	if len(v.Model) > 0 {
		s += fmt.Sprintf(" (witness %v)", v.Model)
	}
	return s
}

// VariantKind classifies a violation by its microarchitectural cause.
type VariantKind uint8

const (
	// VariantUnknown is reported when no classification rule applies.
	VariantUnknown VariantKind = iota
	// VariantV1 is classic bounds-check bypass: a leak while a
	// conditional branch is still speculatively unresolved.
	VariantV1
	// VariantV11 is Spectre v1.1: the leaked data was forwarded from a
	// speculative store.
	VariantV11
	// VariantV4 is speculative store bypass: a load executed ahead of
	// an unresolved store address and read stale data.
	VariantV4
	// VariantSeq marks a leak that occurs with no speculation in
	// flight: the program is not even sequentially constant-time.
	VariantSeq
)

// String names the variant.
func (k VariantKind) String() string {
	switch k {
	case VariantV1:
		return "spectre-v1"
	case VariantV11:
		return "spectre-v1.1"
	case VariantV4:
		return "spectre-v4"
	case VariantSeq:
		return "sequential-ct-violation"
	default:
		return "unclassified"
	}
}

// Result aggregates an exploration.
type Result struct {
	Violations []Violation
	// States is the number of explored machine states.
	States int
	// Paths is the number of completed exploration paths (halted,
	// budget-exhausted, stopped at a violation, or pruned by dedup).
	Paths int
	// Truncated reports whether the MaxStates budget was hit.
	Truncated bool
	// Interrupted reports whether Options.Interrupt (or an OnViolation
	// callback returning false) cut the exploration short.
	Interrupted bool
	// DedupHits is the number of states pruned because their machine
	// fingerprint was already in the visited set.
	DedupHits int
	// BoundBlocked counts the states where the speculation bound acted:
	// a full reorder buffer blocked a fetch, or the window-sliding arm
	// of executePhase fired. An exhaustive run with none explores the
	// same tree at every larger bound.
	BoundBlocked int
}

// SecretFree reports whether no violation was found.
func (r Result) SecretFree() bool { return len(r.Violations) == 0 }

// Explorer walks the worst-case schedules of a machine. An Explorer is
// immutable after construction: all per-exploration state lives in the
// Explore call, so a single Explorer is safe for concurrent and
// interleaved Explore calls.
type Explorer struct {
	opts Options
}

// NewExplorer validates options and returns an explorer.
func NewExplorer(opts Options) (*Explorer, error) {
	if opts.Bound < 1 {
		return nil, fmt.Errorf("sched: speculation bound must be positive, got %d", opts.Bound)
	}
	if opts.MaxStates == 0 {
		opts.MaxStates = DefaultMaxStates
	}
	if opts.MaxRetired == 0 {
		opts.MaxRetired = DefaultMaxRetired
	}
	return &Explorer{opts: opts}, nil
}

// state is one node of the exploration tree. The schedule and trace
// are parent-pointer chains (see chain.go): forks share the prefix
// structurally instead of copying it, so cloning a state costs
// O(1) plus the machine's own copy-on-write fork. Nodes are pooled —
// use newState/releaseState, never allocate directly.
type state struct {
	m     Machine
	sched schedRef
	// trace is the observation chain; each node carries the program
	// point of the instruction that produced the observation — so
	// violations point at the leaking instruction, not the fetch head
	// at detection time.
	trace *traceNode
	// secret is the oldest secret-labeled observation on the trace, or
	// nil — maintained incrementally as observations append, so no
	// state rescans its trace.
	secret *traceNode
	// settled is the path's settled-prefix cursor: every buffer index
	// in [BufMin, settled) holds an entry executePhase's first pass
	// never acts on (see isSettled), so the pass starts at
	// max(settled, BufMin).
	settled int
}

// isSettled reports whether executePhase's first pass can never act
// on the entry: it is resolved and not a fence (values, jumps,
// resolved stores, call/ret markers), or a pending branch, which only
// the second pass and forceOne resolve. A directive on a settled entry
// only ever resolves a branch into a jump, so an entry stays settled
// for as long as its index stays in the buffer.
func isSettled(t TransientView) bool {
	return t.Kind == core.TBr || t.Resolved && t.Kind != core.TFence
}

func (s *state) clone() *state {
	c := newState()
	c.m = s.m.Fork()
	c.sched, c.trace, c.secret = s.sched, s.trace, s.secret
	c.settled = s.settled
	return c
}

// Explore runs the worst-case schedules from a machine's current
// configuration, in either domain (a *core.Machine is the concrete
// one). The machine is forked up front, so the caller's copy is not
// mutated.
//
// The exploration is depth-first, the last-emitted arm first, until
// the tree is exhausted or a budget or stop condition ends the run.
func (e *Explorer) Explore(m Machine) Result {
	var res Result
	opts := &e.opts
	var visited map[uint64]struct{}
	if !opts.NoDedup {
		visited = make(map[uint64]struct{})
	}
	root := newState()
	root.m = m.Fork()
	stack := []*state{root}
	// Successors land directly on the stack as advance produces them.
	emit := func(s *state) { stack = append(stack, s) }
	for len(stack) > 0 {
		if res.States >= opts.MaxStates {
			res.Truncated = true
			ended(stack)
			return res
		}
		if opts.Interrupt != nil && opts.Interrupt() {
			res.Interrupted = true
			ended(stack)
			return res
		}
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		res.States++

		done, viol := advance(opts, visited, &res, st, emit)
		if !done {
			continue
		}
		res.Paths++
		releaseState(st)
		if viol != nil {
			res.Violations = append(res.Violations, *viol)
			if opts.OnViolation != nil && !opts.OnViolation(*viol) {
				res.Interrupted = true
				ended(stack)
				return res
			}
			if opts.StopAtFirst {
				ended(stack)
				return res
			}
		}
	}
	return res
}

// ended releases the states left on the stack of a run that a budget or
// stop condition ended: none of them is to be explored.
func ended(stack []*state) {
	for _, s := range stack {
		releaseState(s)
	}
}

// advance pushes st forward by one strategy decision. It is a pure
// function of the options, the visited set (nil when dedup is off) and
// the state; it adds its dedup and bound counts to res. done=true means
// the path is finished (with viol set if it ended in a violation);
// otherwise the successor states (one for deterministic steps, several
// at fork points) are delivered through emit, in deterministic order,
// avoiding a per-step slice allocation.
func advance(opts *Options, visited map[uint64]struct{}, res *Result, st *state, emit func(*state)) (done bool, viol *Violation) {
	m := st.m

	// Leak check on everything observed so far. The first secret
	// observation is tracked incrementally as the trace grows (see
	// apply), so the check is O(1); the trace prefix up to the leak is
	// materialized only now that a violation is actually recorded.
	if st.secret != nil {
		prefix := st.secret.materialize()
		v := Violation{
			Obs:      st.secret.o,
			Trace:    prefix,
			Kind:     classify(m, prefix, len(prefix)-1),
			PC:       st.secret.pp,
			Sources:  specSources(m),
			Model:    m.Witness(),
			Schedule: st.sched.materialize(),
		}
		return true, &v
	}
	in := m.Instr()
	fetchable := in != nil
	if (m.BufLen() == 0 && !fetchable) || m.RetiredCount() >= opts.MaxRetired {
		return true, nil
	}
	// Dedup check after the leak and termination checks: a pruned
	// state is always secret-free so far, so its subtree's violations
	// are exactly those reachable from the first-visited equivalent
	// configuration. One map operation: the length says if the
	// fingerprint was new.
	if visited != nil {
		n := len(visited)
		visited[m.Fingerprint()] = struct{}{}
		if len(visited) == n {
			res.DedupHits++
			return true, nil
		}
	}

	// Fetch phase: eager until the bound.
	atBound := m.BufLen() >= opts.Bound
	if !atBound && fetchable {
		switch in.Kind {
		case isa.KBr:
			// Fork both guesses; both arms delay branch execution. The
			// fetch either applies in both worlds or stalls in both (the
			// directive checks are guess-independent), so the clone is
			// made only once the first arm has succeeded.
			b := st.clone()
			if !apply(st, core.FetchGuess(true), emit) {
				releaseState(b)
				return true, nil
			}
			if !apply(b, core.FetchGuess(false), emit) {
				releaseState(b)
			}
			return false, nil
		case isa.KJmpi:
			// The tool follows the architecturally correct target
			// (it does not model indirect-jump speculation, §4).
			if target, ok := m.PeekJmpi(in); ok {
				if apply(st, core.FetchTarget(target), emit) {
					return false, nil
				}
				return true, nil
			}
			// Target operands pending: fall through to execution.
		case isa.KRet:
			if _, ok := m.RSBTop(); !ok {
				// The tool does not model RSB underflow attacks;
				// predict through the in-memory return address.
				if target, ok := m.PeekRet(); ok {
					if apply(st, core.FetchTarget(target), emit) {
						return false, nil
					}
					return true, nil
				}
				break // execute pending work first
			}
			if apply(st, core.Fetch(), emit) {
				return false, nil
			}
			return true, nil
		default:
			if apply(st, core.Fetch(), emit) {
				return false, nil
			}
			return true, nil
		}
	}

	// Execute phase: oldest actionable instruction first.
	acted, slid := executePhase(opts, st, emit)
	if slid || atBound && fetchable {
		res.BoundBlocked++
	}
	if acted {
		return false, nil
	}

	// Nothing else is actionable: retire if possible, otherwise force
	// the delayed control flow / store addresses, oldest first.
	i := m.BufMin()
	t, ok := m.View(i)
	if !ok {
		// Empty buffer and nothing fetchable at bound>0: halt was
		// handled above, so this is a wedged path (e.g. jmpi whose
		// operands can never resolve).
		return true, nil
	}
	if t.Resolved {
		if apply(st, core.Retire(), emit) {
			return false, nil
		}
		// A call/ret marker retires only with its whole expansion
		// resolved: force the first unresolved member.
		for j := i + 1; j <= m.BufMax(); j++ {
			u, ok := m.View(j)
			if !ok || u.Resolved {
				continue
			}
			if forceOne(st, j, u, emit) {
				return false, nil
			}
			break
		}
		return true, nil
	}
	if forceOne(st, i, t, emit) {
		return false, nil
	}
	return true, nil
}

// forceOne issues the directive that makes progress on an unresolved
// instruction regardless of the deferral rules — used when nothing can
// proceed otherwise (delayed branches at the head, deferred store
// addresses blocking retirement, call/ret expansion members).
func forceOne(st *state, i int, t TransientView, emit func(*state)) bool {
	switch t.Kind {
	case core.TBr, core.TJmpi, core.TLoad, core.TOp:
		return apply(st, core.Execute(i), emit)
	case core.TStore:
		if !t.ValKnown {
			return apply(st, core.ExecuteValue(i), emit)
		}
		return apply(st, core.ExecuteAddr(i), emit)
	}
	return false
}

// executePhase makes one ascending scan of the buffer for the first
// eagerly executable instruction, applying the deferral rules for
// branches (always delayed) and store addresses (delayed under
// forwarding-hazard mode). Loads fork over forwarding outcomes. The
// scan stops at the first fence — the execute rules' side condition
// ∀j < i : buf(j) ≠ fence bars everything above it. A second pass then
// resolves the pending branches below that fence. Successors are
// delivered through emit; the return reports whether a step was taken.
//
// The scan starts at the path's settled-prefix cursor, not at the
// buffer head: every entry in [BufMin, settled) is settled (isSettled)
// and would be passed over. The scan extends the prefix over the
// settled entries it walks before the first one that can still act, so
// each entry is walked as settled once per path, not once per decision.
// The second pass walks the buffer's pending-branch index instead of
// the entries, so it costs the pending branches, not the buffer. The
// first directive that applies is the one a scan from the head would
// find.
func executePhase(opts *Options, st *state, emit func(*state)) (acted, slid bool) {
	m := st.m
	start := max(st.settled, m.BufMin())
	if cursorCheck != nil {
		cursorCheck(m, start)
	}
	top := m.BufMax()
	settling := true
	for i := start; i <= top; i++ {
		t, ok := m.View(i)
		if !ok {
			continue
		}
		if settling = settling && isSettled(t); settling {
			st.settled = i + 1
		}
		switch t.Kind {
		case core.TFence:
			top = i // nothing beyond a pending fence may execute
		case core.TOp:
			if apply(st, core.Execute(i), emit) {
				return true, false
			}
		case core.TJmpi:
			// Indirect jumps execute as soon as their target operands
			// resolve: the tool follows computed targets architecturally
			// (no jmpi speculation), and eager resolution is what opens
			// the speculative stale-return window of the Fig. 10 gadget
			// — the transient return must happen *before* the pending
			// store address resolves and flags the hazard.
			if apply(st, core.Execute(i), emit) {
				return true, false
			}
		case core.TStore:
			if !t.ValKnown {
				if apply(st, core.ExecuteValue(i), emit) {
					return true, false
				}
				continue
			}
			if !t.AddrKnown && !opts.ForwardHazards {
				if apply(st, core.ExecuteAddr(i), emit) {
					return true, false
				}
			}
		case core.TLoad:
			if loadFork(opts, st, i, emit) {
				return true, false
			}
		}
	}
	// Second pass: with all non-branch work drained, resolve pending
	// branches young-to-old, from the fence (or the buffer top) down —
	// the oldest in-flight branch, branches[0], is delayed to the last
	// possible moment (maximizing its misprediction window), while
	// branches nested inside that window resolve eagerly so their own
	// observations and rollbacks land within it. A stalled directive
	// leaves the machine, and so the index, unchanged.
	//
	// A full buffer can cut a young branch's body off: resolving it
	// first would close its window before the body is fetched. So at
	// the bound, one extra arm slides the window instead: it resolves
	// the oldest branch now, so the entries up to the next pending
	// branch can retire and free slots for the young one's body. The
	// arm only adds a legal schedule, so it cannot report a false leak.
	branches := m.Branches()
	if len(branches) > 1 && m.BufLen() >= opts.Bound && branches[0] <= top {
		b := st.clone()
		if slid = apply(b, core.Execute(branches[0]), emit); !slid {
			releaseState(b)
		}
	}
	for k := len(branches) - 1; k > 0; k-- {
		if i := branches[k]; i <= top && apply(st, core.Execute(i), emit) {
			return true, slid
		}
	}
	return false, slid
}

// cursorCheck, when non-nil, is shown every state executePhase scans:
// the machine and the cursor the scan starts at. Tests set it to
// assert the settled-prefix invariant and the branch index.
var cursorCheck func(m Machine, settled int)

// loadFork decides how the load at index i resolves. Without
// forwarding hazards, or with no pending store addresses below it, the
// load simply executes. Otherwise the fork of Def. B.18 applies: one
// arm executes the load immediately (reading stale memory or
// forwarding from an already-resolved store), and one arm per pending
// store resolves that store's address first, then re-decides.
func loadFork(opts *Options, st *state, i int, emit func(*state)) bool {
	m := st.m
	var pending []int
	if opts.ForwardHazards {
		// A pending store address is unresolved, so it sits at or above
		// the settled-prefix cursor.
		for j := max(st.settled, m.BufMin()); j < i; j++ {
			if s, ok := m.View(j); ok && s.Kind == core.TStore && !s.AddrKnown && s.ValKnown {
				pending = append(pending, j)
			}
		}
	}
	if len(pending) == 0 {
		return apply(st, core.Execute(i), emit)
	}
	acted := false
	// Arm 0: execute the load now, skipping the pending stores.
	now := st.clone()
	if apply(now, core.Execute(i), emit) {
		acted = true
	} else {
		releaseState(now)
	}
	// One arm per pending store: resolve its address first. The load
	// re-decides on the next visit (and may fork again over the
	// remaining pending stores).
	for _, j := range pending {
		arm := st.clone()
		if apply(arm, core.ExecuteAddr(j), emit) {
			acted = true
		} else {
			releaseState(arm)
		}
	}
	if acted {
		// Every live arm is a clone; the parent node itself was not
		// emitted and the path is not "done", so recycle it here.
		releaseState(st)
	}
	return acted
}

// apply runs d on the state's machine, threading schedule, trace, and
// source program points through to each successor; false means the
// directive stalled (the path cannot continue this way). Deterministic
// steps mutate st in place and emit it; at a domain fork the chains
// are shared structurally — each successor just pushes its own
// arm-disambiguated directive onto the common prefix and is emitted in
// arm order.
func apply(st *state, d core.Directive, emit func(*state)) bool {
	pp := sourcePoint(st.m, d)
	succs, err := st.m.Successors(d)
	if err != nil || len(succs) == 0 {
		return false
	}
	// Pre-fork bookkeeping: every arm extends these chains (a path
	// never sees another's extension, so sharing them with an
	// already-emitted arm is safe). st becomes the first arm, so later
	// arms read the snapshot, never st.
	baseSched, baseTrace, baseSecret := st.sched, st.trace, st.secret
	baseSettled := st.settled
	for k, sc := range succs {
		ns := st
		if k > 0 {
			ns = newState()
		}
		ns.m = sc.M
		ns.sched = baseSched.push(sc.D)
		ns.trace, ns.secret = baseTrace, baseSecret
		// A rollback truncates the buffer: clamp the settled prefix to
		// what is left.
		ns.settled = min(baseSettled, sc.M.BufMax()+1)
		for _, o := range sc.Obs {
			ns.trace = ns.trace.push(o, pp)
			if ns.secret == nil && o.Secret() {
				ns.secret = ns.trace
			}
		}
		emit(ns)
	}
	return true
}

// sourcePoint resolves, before the directive runs, the program point
// of the instruction it acts on — the point any observations the step
// produces are attributed to. Execute-family directives name a buffer
// index; retire acts on the buffer head; fetch directives produce no
// observations, so they need no program point.
func sourcePoint(m Machine, d core.Directive) isa.Addr {
	switch d.Kind {
	case core.DExecute, core.DExecValue, core.DExecAddr, core.DExecFwd:
		if t, ok := m.View(d.I); ok {
			return t.PP
		}
	case core.DRetire:
		if t, ok := m.View(m.BufMin()); ok {
			return t.PP
		}
	}
	return 0
}

// classify heuristically attributes a violation to a Spectre variant
// from the machine state at detection time.
func classify(m Machine, trace core.Trace, at int) VariantKind {
	brInFlight := false
	staleWindow := false
	fwdSecret := false
	unresolved := false
	for i := m.BufMin(); i <= m.BufMax(); i++ {
		t, ok := m.View(i)
		if !ok {
			continue
		}
		if !t.Resolved {
			unresolved = true
		}
		switch t.Kind {
		case core.TBr:
			brInFlight = true
		case core.TStore:
			if !t.AddrKnown {
				staleWindow = true
			}
		}
		// A secret load value forwarded from a buffered store marks the
		// v1.1 family.
		if t.FwdSecret {
			fwdSecret = true
		}
	}
	// Forwarded secret ⇒ v1.1 family if speculating on a branch.
	for k := 0; k <= at; k++ {
		if trace[k].Kind == core.OFwd && trace[k].Secret() {
			fwdSecret = true
		}
	}
	switch {
	case brInFlight && fwdSecret:
		return VariantV11
	case brInFlight:
		return VariantV1
	case staleWindow:
		return VariantV4
	case m.BufLen() == 0 || !unresolved:
		return VariantSeq
	default:
		return VariantUnknown
	}
}
