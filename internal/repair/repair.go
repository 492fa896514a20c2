// Package repair implements counterexample-guided repair synthesis:
// the mitigation workflow the paper's conclusion sketches, generalized
// from fence-only insertion into a portfolio of hardening strategies.
// Given a program the detector flags, the engine maps each violation
// back to its guarding speculation sources, asks a mitigation strategy
// for patch sites, realizes the committed sites as an isa patch plan,
// re-verifies, and iterates until the program is speculative-constant-
// time at the analyzed bound. The resulting patch set is minimized by
// greedy deletion under re-verification — ordered by the sequential
// cost model, so the cheapest surviving program wins — and the repair
// is certified behaviour-preserving by replaying the canonical
// sequential schedule of both programs and comparing observation
// traces modulo the plan's address map.
//
// Strategies (Options.Strategy):
//
//   - "fence" (default): the paper's §3.6 fence before each site —
//     branch arms, store successors, callee entries, rets, and the
//     pre-leak fallback;
//   - "mask": SLH-style speculative load hardening — a speculation
//     predicate register maintained at protected branch arms masks
//     computed load addresses on mis-speculated paths (see mask.go for
//     the scratch-register convention);
//   - "ret": return protection — flagged rets are rewritten into the
//     paper's Figure 13 retpoline, which parks RSB mis-speculation on
//     a fence so a stale return prediction cannot reach a leaking
//     load (see retguard.go for the construction);
//   - "auto": run the whole portfolio and pick the cheapest certified
//     patch by estimated sequential cost.
//
// Every candidate patch, whatever the strategy, is re-verified by the
// explorer and certified behaviour-preserved. Only an OutcomeRepaired
// result carries a rewrite: every other outcome hands back the input
// program with After equal to Before, whatever the engine tried on the
// way, and (in auto mode) the portfolio falls back to the other
// strategies. Sequential constant-time violations are detected up
// front and reported as unrepairable: no scheduling or masking
// mitigation can fix a program that leaks architecturally.
package repair

import (
	"errors"
	"fmt"
	"sort"

	"pitchfork/internal/core"
	"pitchfork/internal/isa"
	"pitchfork/internal/pitchfork"
	"pitchfork/internal/sched"
)

// Options configure a repair run.
type Options struct {
	// Verify analyzes a candidate program and returns the detector
	// report. Required. The engine treats a report as a proof of
	// secret-freedom only when it is neither truncated nor interrupted.
	Verify func(*isa.Program) (pitchfork.Report, error)
	// Machine builds a concrete machine in a candidate program's
	// initial configuration. Required: the sequential-leak precheck,
	// the behaviour-preservation certificate and the sequential cost
	// model replay it.
	Machine func(*isa.Program) *core.Machine
	// MaxSeqInstrs bounds the sequential replays of the precheck, the
	// behaviour certificate and the cost model (0 =
	// sched.DefaultMaxRetired).
	MaxSeqInstrs int
	// Strategy selects the mitigation: StrategyFence (also the empty
	// string), StrategyMask, StrategyRet, or StrategyAuto for the
	// cheapest-certified portfolio.
	Strategy string
}

// DefaultMaxIters bounds the counterexample-guided iterations. Each
// iteration adds at least one patch site, so the budget also bounds
// the site count before minimization.
const DefaultMaxIters = 32

// Outcome classifies a repair run.
type Outcome uint8

const (
	// OutcomeFailed: the engine could not reach a verdict — a
	// verification error, an inconclusive (truncated/interrupted)
	// clean report, or a failed behaviour certificate. It is the zero
	// value on purpose: a Result returned alongside an error never
	// accidentally reads as certified.
	OutcomeFailed Outcome = iota
	// OutcomeClean: the program verified secret-free as given; no
	// patches were needed.
	OutcomeClean
	// OutcomeRepaired: the program was rewritten and re-verified
	// secret-free.
	OutcomeRepaired
	// OutcomeSequentialLeak: the program leaks with no speculation in
	// flight; no mitigation can repair it.
	OutcomeSequentialLeak
	// OutcomeExhausted: the iteration budget ran out, no placement rule
	// produced a new patch site, or the strategy could not realize a
	// plan for this program, before verification came back clean.
	OutcomeExhausted
	// OutcomeUnsafeRewrite: the patch plan would shift the target of a
	// computed jump, which the rewriting layer cannot remap — applying
	// it would silently change the program's architectural behaviour,
	// so the engine refuses the rewrite instead.
	OutcomeUnsafeRewrite
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeFailed:
		return "failed"
	case OutcomeClean:
		return "clean"
	case OutcomeRepaired:
		return "repaired"
	case OutcomeSequentialLeak:
		return "sequential-leak"
	case OutcomeExhausted:
		return "exhausted"
	case OutcomeUnsafeRewrite:
		return "unsafe-rewrite"
	}
	return "unknown"
}

// Secured reports whether the outcome certifies a secret-free program
// (either as given or after repair).
func (o Outcome) Secured() bool { return o == OutcomeClean || o == OutcomeRepaired }

// Result is the outcome of a repair run. Only an OutcomeRepaired
// result describes a rewrite; any other outcome describes the input
// program: Prog is the input, After equals Before, Fences is empty and
// MapTarget is the identity.
type Result struct {
	// Prog is the repaired program — the input program itself unless
	// the outcome is OutcomeRepaired.
	Prog *isa.Program
	// Outcome classifies the run.
	Outcome Outcome
	// Strategy names the mitigation that produced this result; empty
	// when the program was clean as given.
	Strategy string
	// Sites are the committed patch sites in the ORIGINAL program's
	// address space, sorted. Their meaning is strategy-relative: fence
	// insertion points for "fence", protected branches for "mask",
	// rewritten rets for "ret". A run that gave up after committing
	// sites lists the sites it tried.
	Sites []isa.Addr
	// Fences are the program points of the inserted instructions in the
	// REPAIRED program's address space, sorted. (The name predates the
	// portfolio: for the fence strategy these are exactly the fences;
	// for the others they are the strategy's inserted instructions.)
	// Replacements keep the instruction count unchanged, so repaired
	// length = original length + len(Fences).
	Fences []isa.Addr
	// Before is the detector report of the unrepaired program; After
	// the report of the final program (equal to Before when no rewrite
	// happened).
	Before, After pitchfork.Report
	// Iterations counts verification-guided insertion rounds (0 when
	// the program was already clean).
	Iterations int
	// PreMinimizeFences is the inserted-instruction count before
	// minimization (equal to len(Fences) when minimization removed
	// nothing).
	PreMinimizeFences int
	// UnsafeJump is the program point of the computed jump whose target
	// the refused patch plan would have shifted (OutcomeUnsafeRewrite
	// only).
	UnsafeJump isa.Addr
	// SeqInstrsBefore and SeqInstrs are the sequential cost model's
	// estimates — instructions retired by the bounded sequential
	// replay — for the original and the repaired program (0 when the
	// original's replay faults).
	SeqInstrsBefore, SeqInstrs int
	// PerStrategy holds every strategy's attempt in portfolio order
	// when the run used StrategyAuto (nil otherwise); the Result itself
	// is the chosen attempt.
	PerStrategy []*Result

	// rw is the certified rewrite, carrying the address map and the
	// plan's provenance. nil unless the outcome is OutcomeRepaired.
	rw *isa.Rewrite
}

// MapTarget translates an original control-flow target into Prog:
// targets equal to a patch site keep pointing at the start of the
// inserted block — they flow through it — so only strictly smaller
// sites shift them. Without a rewrite Prog is the input program and
// every target stays put.
func (r *Result) MapTarget(a isa.Addr) isa.Addr {
	if r.rw == nil {
		return a
	}
	return r.rw.Map.Target(a)
}

// Repair runs the counterexample-guided synthesis loop on prog. The
// input program is never mutated. A non-nil error means the engine
// could not reach a verdict (verification failed, was interrupted, or
// exhausted its state budget while looking clean); the partial Result
// accompanies it.
func Repair(prog *isa.Program, opts Options) (*Result, error) {
	if prog == nil {
		return nil, fmt.Errorf("repair: nil program")
	}
	if opts.Verify == nil {
		return nil, fmt.Errorf("repair: Options.Verify is required")
	}
	if opts.Machine == nil {
		return nil, fmt.Errorf("repair: Options.Machine is required")
	}
	strategies, err := strategiesFor(opts.Strategy)
	if err != nil {
		return nil, err
	}
	if opts.MaxSeqInstrs <= 0 {
		opts.MaxSeqInstrs = sched.DefaultMaxRetired
	}

	before, err := opts.Verify(prog)
	if err != nil {
		return nil, fmt.Errorf("repair: baseline verification: %w", err)
	}
	res := &Result{Prog: prog, Before: before, After: before}
	if clean, err := certifiedClean(before); clean {
		res.Outcome = OutcomeClean
		return res, nil
	} else if err != nil {
		return res, fmt.Errorf("repair: baseline verification inconclusive: %w", err)
	}

	// No mitigation can mask a leak the canonical sequential execution
	// already produces. The replay, its halt status and its retired
	// count double as the baseline of the behaviour certificate and the
	// cost model.
	var base *seqBaseline
	if b, err := runAttributed(opts.Machine(prog), opts.MaxSeqInstrs); err == nil {
		base = b
		for _, o := range b.obs {
			if o.o.Secret() {
				res.Outcome = OutcomeSequentialLeak
				res.Strategy = strategies[0].Name()
				return res, nil
			}
		}
	}

	if len(strategies) == 1 {
		return runStrategy(prog, strategies[0], before, base, opts)
	}
	return portfolio(prog, strategies, before, base, opts)
}

// runStrategy drives the counterexample-guided loop for one
// mitigation: propose sites per violation, realize them as a patch
// plan, re-verify, iterate; then minimize, and certify behaviour.
func runStrategy(prog *isa.Program, mit Mitigation, before pitchfork.Report, base *seqBaseline, opts Options) (*Result, error) {
	// The rewrite under test lives in locals until it is certified, so
	// every give-up hands back the input program with After == Before.
	res := &Result{Prog: prog, Before: before, After: before, Strategy: mit.Name()}
	giveUp := func(o Outcome, err error) (*Result, error) {
		res.Outcome = o
		return res, err
	}
	siteSet := make(map[isa.Addr]bool)
	cur := before
	inv := identityMap(prog) // repaired-space point → original-space point
	var rw *isa.Rewrite
	clean := false
	for iter := 1; iter <= DefaultMaxIters && !clean; iter++ {
		progress := false
		pending := make(map[isa.Addr]bool) // sites first proposed this round
		for _, v := range cur.Violations {
			saturated := true // every source placement tried in an earlier round
			for _, s := range mit.CandidateSites(prog, v, inv) {
				if !siteSet[s] {
					siteSet[s] = true
					pending[s] = true
					progress, saturated = true, false
				} else if pending[s] {
					saturated = false // proposed this round, not yet verified
				}
			}
			if saturated {
				if s, ok := mit.FallbackSite(prog, v, inv); ok && !siteSet[s] {
					siteSet[s] = true
					progress = true
				}
			}
		}
		if !progress {
			return giveUp(OutcomeExhausted, nil)
		}
		res.Iterations = iter
		res.Sites = sortedSites(siteSet)
		plan, err := mit.Plan(prog, res.Sites)
		if err != nil {
			// The strategy cannot rewrite this program at all (e.g. a
			// violated register convention, no dispatch targets).
			return giveUp(OutcomeExhausted, nil)
		}
		if rw, err = plan.Apply(prog); err != nil {
			var cj *isa.ComputedJumpError
			if errors.As(err, &cj) {
				res.UnsafeJump = cj.Jump // refuse the rewrite: it would break the jump
				return giveUp(OutcomeUnsafeRewrite, nil)
			}
			return giveUp(OutcomeFailed, fmt.Errorf("repair: %s plan rejected: %w", mit.Name(), err))
		}
		inv = rw.Orig
		if cur, err = opts.Verify(rw.Prog); err != nil {
			return giveUp(OutcomeFailed, fmt.Errorf("repair: verification (iteration %d): %w", iter, err))
		}
		if clean, err = certifiedClean(cur); err != nil {
			return giveUp(OutcomeFailed, fmt.Errorf("repair: verification inconclusive (iteration %d): %w", iter, err))
		}
	}
	if !clean {
		return giveUp(OutcomeExhausted, nil) // the tried patches were ineffective
	}

	best := candidate{sites: res.Sites, rw: rw, rep: cur}
	if len(best.sites) > 1 {
		var err error
		if best, err = minimize(prog, mit, best, opts); err != nil {
			return giveUp(OutcomeFailed, err)
		}
	}
	if base != nil {
		retired, err := behaviourPreserved(base, best.rw, opts)
		if err != nil {
			return giveUp(OutcomeFailed, fmt.Errorf("repair: %w", err))
		}
		res.SeqInstrsBefore, res.SeqInstrs = base.retired, retired
	}
	res.Outcome = OutcomeRepaired
	res.Prog, res.rw, res.After, res.Sites = best.rw.Prog, best.rw, best.rep, best.sites
	res.Fences = append([]isa.Addr(nil), best.rw.Inserted...)
	res.PreMinimizeFences = len(rw.Inserted) // the last round's rewrite, before minimization
	return res, nil
}

// portfolio runs every strategy and picks the cheapest certified
// attempt: least estimated sequential cost, then fewest instructions,
// then portfolio order. When nothing certifies, the first (fence)
// attempt's result and error are returned so auto mode degrades to the
// historical behaviour; either way every attempt is attached as
// PerStrategy.
func portfolio(prog *isa.Program, mits []Mitigation, before pitchfork.Report, base *seqBaseline, opts Options) (*Result, error) {
	attempts := make([]*Result, len(mits))
	errs := make([]error, len(mits))
	for i, m := range mits {
		attempts[i], errs[i] = runStrategy(prog, m, before, base, opts)
	}
	var best *Result
	for i, a := range attempts {
		if errs[i] != nil || !a.Outcome.Secured() {
			continue
		}
		if best == nil || cheaperThan(a, best) {
			best = a
		}
	}
	if best == nil {
		attempts[0].PerStrategy = attempts
		return attempts[0], errs[0]
	}
	best.PerStrategy = attempts
	return best, nil
}

// cheaperThan orders certified attempts by the cost model; strict
// comparisons keep the earlier (portfolio-order) attempt on ties.
func cheaperThan(a, b *Result) bool {
	if a.SeqInstrs != b.SeqInstrs {
		return a.SeqInstrs < b.SeqInstrs
	}
	return a.Prog.Len() < b.Prog.Len()
}

// seqObs is one observation of a sequential replay attributed to the
// program point of the instruction that produced it. RunSequential
// retires each instruction before the next fetch, so every observation
// between one fetch directive and the next belongs to the fetched
// instruction.
type seqObs struct {
	o  core.Observation
	pp isa.Addr
}

// seqBaseline is a program's bounded sequential replay: for the
// original, the precheck input, the behaviour-certificate reference,
// and the cost model's "before" estimate; for a rewrite, the
// certificate's subject and the cost model's estimate.
type seqBaseline struct {
	obs     []seqObs
	halted  bool
	haltPC  isa.Addr
	retired int
}

// runAttributed plays the canonical sequential schedule of the fresh
// machine m and attributes every observation to the program point it
// was fetched from: the schedule is discovered with RunSequential on m,
// then replayed step by step on a clone of m taken before the run,
// reading the fetch PC before each fetch directive. Replay is
// deterministic, so both runs see identical behaviour. (A clone is
// copy-on-write; building a second machine would re-image the whole
// data memory.)
func runAttributed(m *core.Machine, budget int) (*seqBaseline, error) {
	replay := m.Clone()
	schedule, _, err := core.RunSequential(m, budget)
	if err != nil {
		return nil, err
	}
	m = replay
	b := &seqBaseline{}
	var cur isa.Addr
	for _, d := range schedule {
		switch d.Kind {
		case core.DFetch, core.DFetchGuess, core.DFetchTarget:
			cur = m.PC
		}
		obs, err := m.Step(d)
		if err != nil {
			return nil, err
		}
		for _, o := range obs {
			b.obs = append(b.obs, seqObs{o: o, pp: cur})
		}
	}
	b.halted, b.haltPC, b.retired = m.Halted(), m.PC, m.Retired
	return b, nil
}

// certifiedClean reports whether rep proves secret-freedom. A clean
// report that was truncated or interrupted proves nothing; that case
// returns an error so callers fail loudly instead of shipping an
// uncertified patch. A flagged report is always usable — its
// counterexamples are sound regardless of truncation.
func certifiedClean(rep pitchfork.Report) (bool, error) {
	if !rep.SecretFree() {
		return false, nil
	}
	if rep.Interrupted {
		return false, fmt.Errorf("analysis interrupted")
	}
	if rep.Truncated {
		return false, fmt.Errorf("state budget exhausted before full coverage; raise MaxStates")
	}
	return true, nil
}

func identityMap(p *isa.Program) map[isa.Addr]isa.Addr {
	inv := make(map[isa.Addr]isa.Addr, len(p.Instrs))
	for a := range p.Instrs {
		inv[a] = a
	}
	return inv
}

func sortedSites(set map[isa.Addr]bool) []isa.Addr {
	out := make([]isa.Addr, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// candidate is a certified-clean rewrite of the input program: the
// committed sites, the rewrite realizing them, and its clean report.
type candidate struct {
	sites []isa.Addr
	rw    *isa.Rewrite
	rep   pitchfork.Report
}

// minimize greedily deletes redundant patch sites of c: for each site —
// in the cost model's preferred order — re-verify without it and drop
// it if the program stays certified clean. Patches only restrict the
// attacker (fences constrain schedules, masks zero mis-speculated
// addresses, dispatches shrink the reachable target set), so leakage
// is monotone in site removal — the surviving set is 1-minimal:
// removing any single remaining site reintroduces a violation.
func minimize(orig *isa.Program, mit Mitigation, c candidate, opts Options) (candidate, error) {
	for _, s := range minimizeOrder(orig, mit, c.sites, opts) {
		trial := without(c.sites, s)
		plan, err := mit.Plan(orig, trial)
		if err != nil || plan.Empty() {
			// An empty plan's trial is the input program itself, which
			// the baseline verification already found not clean. (An
			// empty site list is not enough: the mask plan with no
			// sites still masks every computed-address load.)
			continue
		}
		rw, err := plan.Apply(orig)
		if err != nil {
			continue
		}
		rep, err := opts.Verify(rw.Prog)
		if err != nil {
			return c, fmt.Errorf("repair: minimization verification: %w", err)
		}
		clean, certErr := certifiedClean(rep)
		if certErr != nil {
			return c, fmt.Errorf("repair: minimization inconclusive: %w", certErr)
		}
		if clean {
			c = candidate{sites: trial, rw: rw, rep: rep}
		}
	}
	return c, nil
}

func without(sites []isa.Addr, drop isa.Addr) []isa.Addr {
	out := make([]isa.Addr, 0, len(sites))
	for _, s := range sites {
		if s != drop {
			out = append(out, s)
		}
	}
	return out
}

// behaviourPreserved replays the canonical sequential schedule of the
// rewritten program and compares it against the original's baseline:
// observations of instructions inherited from the original must match
// in order, kind, label, and address — jump targets through the
// rewrite's address map — while plan-authored instructions (inserted,
// and the occupants of replaced points on both sides) may only
// contribute PUBLIC observations. Rollback events are excluded on both
// sides: sequentially they only mark an RSB misprediction recovering to
// the architectural target, which is exactly the prediction behaviour a
// return mitigation is entitled to change (always-public, no payload,
// and the very next jump observation pins the recovered target). A
// fence plan authors nothing observable, so its comparison degenerates
// to the exact historical trace equality; a mask's replaced loads read
// the same addresses they replaced; a retpoline's added stack traffic
// is public by construction and anything it gets wrong — a misdirected
// return, a clobbered slot — desynchronizes the very next inherited
// observation or the final halt point. This catches the one
// unsoundness the rewriting layer documents (computed control flow the
// static remap could not follow) as well as any mitigation that changed
// what the program architecturally does. On success it returns the
// instructions the rewritten replay retired: the certificate's replay
// doubles as the cost estimate.
func behaviourPreserved(base *seqBaseline, rw *isa.Rewrite, opts Options) (int, error) {
	// Inserted instructions retire too, so the repaired replay needs a
	// wider budget — and a patch inside a loop retires once per
	// iteration, so no static widening covers every program. Instead,
	// both runs are budget-bounded and compared on their common
	// observation prefix; lengths must agree exactly only when both
	// replays actually halted.
	rew, err := runAttributed(opts.Machine(rw.Prog), 2*opts.MaxSeqInstrs)
	if err != nil {
		return 0, fmt.Errorf("behaviour check: repaired program faults sequentially: %v", err)
	}
	replacedOrig := make(map[isa.Addr]bool, len(rw.Replaced))
	planPoint := make(map[isa.Addr]bool, len(rw.Inserted)+len(rw.Replaced))
	for _, a := range rw.Inserted {
		planPoint[a] = true
	}
	for _, p := range rw.Replaced {
		replacedOrig[p] = true
		planPoint[rw.Map.Addr(p)] = true
	}
	to := make([]seqObs, 0, len(base.obs))
	for _, o := range base.obs {
		if replacedOrig[o.pp] || o.o.Kind == core.ORollback {
			continue // replaced occupant: its stand-in is filtered on the other side
		}
		to = append(to, o)
	}
	tr := make([]seqObs, 0, len(rew.obs))
	for _, o := range rew.obs {
		if o.o.Kind == core.ORollback {
			continue
		}
		if planPoint[o.pp] {
			if o.o.Secret() {
				return 0, fmt.Errorf("behaviour check: patch instruction at %d makes a secret observation: %s", o.pp, o.o)
			}
			continue
		}
		tr = append(tr, o)
	}
	if base.halted && rew.halted && len(to) != len(tr) {
		return 0, fmt.Errorf("behaviour check: sequential trace length changed: %d → %d", len(to), len(tr))
	}
	if rew.halted && !base.halted && len(tr) < len(to) {
		return 0, fmt.Errorf("behaviour check: repaired program halts early: %d observations, original produced %d", len(tr), len(to))
	}
	if base.halted && rew.halted {
		if want := rw.Map.Target(base.haltPC); rew.haltPC != want {
			return 0, fmt.Errorf("behaviour check: halt point %d remapped to %d, reached %d", base.haltPC, want, rew.haltPC)
		}
	}
	n := len(to)
	if len(tr) < n {
		n = len(tr)
	}
	for i := 0; i < n; i++ {
		a, b := to[i].o, tr[i].o
		if a.Kind != b.Kind || a.Secret() != b.Secret() {
			return 0, fmt.Errorf("behaviour check: sequential observation %d changed: %s → %s", i, a, b)
		}
		if a.Kind == core.OJump {
			if want := rw.Map.Target(a.Target); b.Target != want {
				return 0, fmt.Errorf("behaviour check: jump target %d remapped to %d, executed %d", a.Target, want, b.Target)
			}
		} else if a.Addr != b.Addr {
			return 0, fmt.Errorf("behaviour check: data address changed at observation %d: %#x → %#x", i, a.Addr, b.Addr)
		}
	}
	return rew.retired, nil
}
