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
// explorer and certified behaviour-preserved; a strategy that cannot
// realize or certify a patch reports OutcomeExhausted and (in auto
// mode) the portfolio falls back to the others. Sequential
// constant-time violations are detected up front and reported as
// unrepairable: no scheduling or masking mitigation can fix a program
// that leaks architecturally.
package repair

import (
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
	// initial configuration. Optional; when set it enables the
	// sequential-leak precheck, the behaviour-preservation certificate,
	// and the sequential cost model.
	Machine func(*isa.Program) *core.Machine
	// MaxIters bounds the counterexample-guided iterations (0 =
	// DefaultMaxIters).
	MaxIters int
	// NoMinimize skips the greedy patch-set minimization pass.
	NoMinimize bool
	// MaxSeqInstrs bounds the sequential replays of the precheck, the
	// behaviour certificate and the cost model (0 =
	// sched.DefaultMaxRetired).
	MaxSeqInstrs int
	// Hints, if non-nil, supplies static suspiciousness verdicts (an
	// internal/taint Report satisfies the interface) that rank
	// candidate patch sites: each round tries only the most suspicious
	// untried site per violation instead of every source placement at
	// once, so minimization starts from a smaller, better-aimed set.
	Hints Hints
	// Strategy selects the mitigation: StrategyFence (also the empty
	// string), StrategyMask, StrategyRet, or StrategyAuto for the
	// cheapest-certified portfolio.
	Strategy string
}

// Hints is the static pre-analysis contract the site ranking consumes
// (implemented by internal/taint's Report without either package
// importing the other).
type Hints interface {
	// ForkFree reports that no secret-labeled observation is possible
	// at pp or at any point forward-reachable from it — a fence at such
	// a point cannot cut off any leak.
	ForkFree(pp isa.Addr) bool
}

// DefaultMaxIters is the iteration budget when Options leaves it zero.
// Each iteration adds at least one patch site, so the budget also
// bounds the site count before minimization.
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

// Result is the outcome of a repair run.
type Result struct {
	// Prog is the repaired program — the input program itself when no
	// patches were needed or none could help.
	Prog *isa.Program
	// Outcome classifies the run.
	Outcome Outcome
	// Strategy names the mitigation that produced this result; empty
	// when the program was clean as given.
	Strategy string
	// Sites are the committed patch sites in the ORIGINAL program's
	// address space, sorted. Their meaning is strategy-relative: fence
	// insertion points for "fence", protected branches for "mask",
	// rewritten rets for "ret".
	Sites []isa.Addr
	// Fences are the program points of the inserted instructions in the
	// REPAIRED program's address space, sorted. (The name predates the
	// portfolio: for the fence strategy these are exactly the fences;
	// for the others they are the strategy's inserted instructions.)
	Fences []isa.Addr
	// Inserted is the number of inserted instructions in the final
	// patch (replacements keep the instruction count unchanged, so
	// repaired length = original length + Inserted).
	Inserted int
	// Before is the detector report of the unrepaired program; After
	// the report of the final program (equal to Before when no rewrite
	// happened).
	Before, After pitchfork.Report
	// Iterations counts verification-guided insertion rounds (0 when
	// the program was already clean).
	Iterations int
	// PreMinimizeFences is the inserted-instruction count before
	// minimization (equal to Inserted when minimization is disabled or
	// removed nothing).
	PreMinimizeFences int
	// UnsafeJump is the program point of the computed jump whose target
	// the refused patch plan would have shifted (OutcomeUnsafeRewrite
	// only).
	UnsafeJump isa.Addr
	// SeqInstrsBefore and SeqInstrs are the sequential cost model's
	// estimates — instructions retired by the bounded sequential
	// replay — for the original and the repaired program (0 when
	// Options.Machine is unset).
	SeqInstrsBefore, SeqInstrs int
	// PerStrategy holds every strategy's attempt in portfolio order
	// when the run used StrategyAuto (nil otherwise); the Result itself
	// is the chosen attempt.
	PerStrategy []*Result

	// rw is the final patch plan's rewrite, carrying the precomputed
	// address map and the inserted-point provenance. nil when no
	// rewrite was applied (clean, refused, exhausted) or on hand-built
	// Results, where the address maps fall back to the historical
	// fence-shaped shift arithmetic over Sites.
	rw *isa.Rewrite
	// plan is the final patch plan itself; the behaviour certificate
	// reads its replacement points. nil exactly when rw is.
	plan *isa.Plan
}

// replacedPoints returns the original program points whose occupant the
// final plan replaced (nil for insertion-only plans).
func (r *Result) replacedPoints() map[isa.Addr]bool {
	if r.plan == nil {
		return nil
	}
	var set map[isa.Addr]bool
	for _, p := range r.plan.Patches() {
		if p.Replace != nil {
			if set == nil {
				set = make(map[isa.Addr]bool)
			}
			set[p.At] = true
		}
	}
	return set
}

// MapTarget translates an original control-flow target: targets equal
// to a patch site keep pointing at the start of the inserted block —
// they flow through it — so only strictly smaller sites shift them.
func (r *Result) MapTarget(a isa.Addr) isa.Addr {
	if r.rw != nil {
		return r.rw.Map.Target(a)
	}
	out := a
	for _, s := range r.Sites {
		if s < a {
			out++
		}
	}
	return out
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
	strategies, err := strategiesFor(opts.Strategy)
	if err != nil {
		return nil, err
	}
	if opts.MaxIters <= 0 {
		opts.MaxIters = DefaultMaxIters
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
	if opts.Machine != nil {
		if b, err := runAttributed(func() *core.Machine { return opts.Machine(prog) }, opts.MaxSeqInstrs); err == nil {
			base = b
			for _, o := range b.obs {
				if o.o.Secret() {
					res.Outcome = OutcomeSequentialLeak
					res.Strategy = strategies[0].Name()
					return res, nil
				}
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
	res := &Result{Prog: prog, Before: before, After: before, Strategy: mit.Name()}
	siteSet := make(map[isa.Addr]bool)
	cur := before
	inv := identityMap(prog) // repaired-space point → original-space point
	secured := false
	for iter := 1; iter <= opts.MaxIters; iter++ {
		progress := false
		pending := make(map[isa.Addr]bool) // sites first proposed this round
		for _, v := range cur.Violations {
			cands := mit.CandidateSites(prog, v, inv)
			if opts.Hints != nil {
				rankSites(cands, opts.Hints)
			}
			saturated := true // every source placement tried in an earlier round
			for _, s := range cands {
				if !siteSet[s] {
					siteSet[s] = true
					pending[s] = true
					progress, saturated = true, false
					if opts.Hints != nil {
						// Ranked mode: commit only the most suspicious
						// untried site this round; the rest stay in
						// reserve for later rounds if the leak persists.
						break
					}
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
			res.Outcome = OutcomeExhausted
			res.Prog = prog // per the Result contract: no effective repair, no rewrite
			res.rw, res.plan = nil, nil
			return res, nil
		}
		res.Iterations = iter
		res.Sites = sortedSites(siteSet)
		plan, perr := mit.Plan(prog, res.Sites)
		if perr != nil {
			// The strategy cannot rewrite this program at all (e.g. a
			// violated register convention, no dispatch targets).
			res.Outcome = OutcomeExhausted
			res.Prog, res.rw, res.plan = prog, nil, nil
			return res, nil
		}
		if pp, hazard := plan.JmpiHazard(prog); hazard {
			res.Outcome = OutcomeUnsafeRewrite
			res.Prog = prog // refuse the rewrite: it would break the jump at pp
			res.rw, res.plan = nil, nil
			res.UnsafeJump = pp
			return res, nil
		}
		rw, err := plan.Apply(prog)
		if err != nil {
			return res, fmt.Errorf("repair: %s plan rejected: %w", mit.Name(), err)
		}
		inv = rw.Orig
		rep, err := opts.Verify(rw.Prog)
		if err != nil {
			return res, fmt.Errorf("repair: verification (iteration %d): %w", iter, err)
		}
		res.Prog, res.rw, res.plan, res.After, cur = rw.Prog, rw, plan, rep, rep
		if clean, err := certifiedClean(rep); clean {
			secured = true
			break
		} else if err != nil {
			return res, fmt.Errorf("repair: verification inconclusive (iteration %d): %w", iter, err)
		}
	}
	if !secured {
		res.Outcome = OutcomeExhausted
		res.Prog = prog // the tried patches were ineffective; return the input
		res.rw, res.plan = nil, nil
		return res, nil
	}
	res.Outcome = OutcomeRepaired
	res.PreMinimizeFences = len(res.rw.Inserted)

	if !opts.NoMinimize && len(res.Sites) > 1 {
		if err := minimize(prog, mit, res, opts); err != nil {
			res.Outcome = OutcomeFailed
			return res, err
		}
	}
	res.Fences = append([]isa.Addr(nil), res.rw.Inserted...)
	res.Inserted = len(res.Fences)

	if base != nil {
		if err := behaviourPreserved(base, res, opts); err != nil {
			res.Outcome = OutcomeFailed
			return res, fmt.Errorf("repair: %w", err)
		}
		res.SeqInstrsBefore = base.retired
		res.SeqInstrs = seqCost(res.Prog, opts)
	}
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

// seqBaseline is the original program's bounded sequential replay:
// the precheck input, the behaviour-certificate reference, and the
// cost model's "before" estimate.
type seqBaseline struct {
	obs     []seqObs
	halted  bool
	haltPC  isa.Addr
	retired int
}

// runAttributed plays the canonical sequential schedule of a fresh
// machine and attributes every observation to the program point it was
// fetched from: the schedule is discovered with RunSequential, then
// replayed step by step on a second fresh machine, reading the fetch
// PC before each fetch directive. Replay is deterministic, so both
// runs see identical behaviour.
func runAttributed(mk func() *core.Machine, budget int) (*seqBaseline, error) {
	schedule, _, err := core.RunSequential(mk(), budget)
	if err != nil {
		return nil, err
	}
	m := mk()
	b := &seqBaseline{retired: retiredCount(schedule)}
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
	b.halted, b.haltPC = m.Halted(), m.PC
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

// rankSites orders candidate patch sites most-suspicious first: sites
// from which a suspicious point is still forward-reachable (!ForkFree)
// can actually cut a leak off, so they are tried before provably
// fork-free ones; ties break on ascending address so ranked runs stay
// deterministic.
func rankSites(sites []isa.Addr, h Hints) {
	sort.SliceStable(sites, func(i, j int) bool {
		si, sj := !h.ForkFree(sites[i]), !h.ForkFree(sites[j])
		if si != sj {
			return si
		}
		return sites[i] < sites[j]
	})
}

// computedJumpHazard reports whether inserting fences at sites would
// silently retarget a computed jump — the historical entry point, now
// a thin wrapper over the fence plan's static hazard check.
func computedJumpHazard(p *isa.Program, sites []isa.Addr) (isa.Addr, bool) {
	plan, _ := fenceMitigation{}.Plan(p, sites)
	return plan.JmpiHazard(p)
}

// applySites inserts a fence before the original occupant of every
// site and returns the rewritten program plus the inverse
// instruction-location map (repaired point → original point) — the
// historical fence-only rewrite, expressed as a patch plan.
func applySites(orig *isa.Program, sites []isa.Addr) (*isa.Program, map[isa.Addr]isa.Addr) {
	plan, _ := fenceMitigation{}.Plan(orig, sites)
	rw, err := plan.Apply(orig)
	if err != nil {
		// Unreachable for fence plans over a valid program (insertion
		// never invalidates and sites are deduplicated); fail loudly
		// rather than hand back a half-rewritten program.
		panic(fmt.Sprintf("repair: fence plan failed to apply: %v", err))
	}
	return rw.Prog, rw.Orig
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

// minimize greedily deletes redundant patch sites: for each site — in
// the cost model's preferred order — re-verify without it and drop it
// if the program stays certified clean. Patches only restrict the
// attacker (fences constrain schedules, masks zero mis-speculated
// addresses, dispatches shrink the reachable target set), so leakage
// is monotone in site removal — the surviving set is 1-minimal:
// removing any single remaining site reintroduces a violation.
func minimize(orig *isa.Program, mit Mitigation, res *Result, opts Options) error {
	sites := append([]isa.Addr(nil), res.Sites...)
	for _, s := range minimizeOrder(orig, mit, res.Sites, opts) {
		trial := without(sites, s)
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
			return fmt.Errorf("repair: minimization verification: %w", err)
		}
		clean, certErr := certifiedClean(rep)
		if certErr != nil {
			return fmt.Errorf("repair: minimization inconclusive: %w", certErr)
		}
		if clean {
			sites = trial
			res.Prog, res.After, res.rw, res.plan = rw.Prog, rep, rw, plan
		}
	}
	res.Sites = sites
	return nil
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
// repaired program and compares it against the original's baseline:
// observations of instructions inherited from the original must match
// in order, kind, label, and address — jump targets through the plan's
// address map — while plan-authored instructions (inserted, and the
// occupants of replaced points on both sides) may only contribute
// PUBLIC observations. Rollback events are excluded on both sides:
// sequentially they only mark an RSB misprediction recovering to the
// architectural target, which is exactly the prediction behaviour a
// return mitigation is entitled to change (always-public, no payload,
// and the very next jump observation pins the recovered target). A fence plan authors nothing observable, so its
// comparison degenerates to the exact historical trace equality; a
// mask's replaced loads read the same addresses they replaced; a
// retpoline's added stack traffic is public by construction and
// anything it gets wrong — a misdirected return, a clobbered slot —
// desynchronizes the very next inherited observation or the final halt
// point. This catches the one unsoundness the rewriting layer
// documents (computed control flow the static remap could not follow)
// as well as any mitigation that changed what the program
// architecturally does.
func behaviourPreserved(base *seqBaseline, res *Result, opts Options) error {
	if opts.MaxSeqInstrs <= 0 {
		opts.MaxSeqInstrs = sched.DefaultMaxRetired
	}
	// Inserted instructions retire too, so the repaired replay needs a
	// wider budget — and a patch inside a loop retires once per
	// iteration, so no static widening covers every program. Instead,
	// both runs are budget-bounded and compared on their common
	// observation prefix; lengths must agree exactly only when both
	// replays actually halted.
	rew, err := runAttributed(func() *core.Machine { return opts.Machine(res.Prog) }, 2*opts.MaxSeqInstrs)
	if err != nil {
		return fmt.Errorf("behaviour check: repaired program faults sequentially: %v", err)
	}
	replacedOrig := res.replacedPoints()
	planPoint := func(pp isa.Addr) bool { return false }
	if res.rw != nil {
		inserted := make(map[isa.Addr]bool, len(res.rw.Inserted))
		for _, a := range res.rw.Inserted {
			inserted[a] = true
		}
		for p := range replacedOrig {
			inserted[res.rw.Map.Addr(p)] = true
		}
		planPoint = func(pp isa.Addr) bool { return inserted[pp] }
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
		if planPoint(o.pp) {
			if o.o.Secret() {
				return fmt.Errorf("behaviour check: patch instruction at %d makes a secret observation: %s", o.pp, o.o)
			}
			continue
		}
		tr = append(tr, o)
	}
	if base.halted && rew.halted && len(to) != len(tr) {
		return fmt.Errorf("behaviour check: sequential trace length changed: %d → %d", len(to), len(tr))
	}
	if rew.halted && !base.halted && len(tr) < len(to) {
		return fmt.Errorf("behaviour check: repaired program halts early: %d observations, original produced %d", len(tr), len(to))
	}
	if base.halted && rew.halted {
		if want := res.MapTarget(base.haltPC); rew.haltPC != want {
			return fmt.Errorf("behaviour check: halt point %d remapped to %d, reached %d", base.haltPC, want, rew.haltPC)
		}
	}
	n := len(to)
	if len(tr) < n {
		n = len(tr)
	}
	for i := 0; i < n; i++ {
		a, b := to[i].o, tr[i].o
		if a.Kind != b.Kind || a.Secret() != b.Secret() {
			return fmt.Errorf("behaviour check: sequential observation %d changed: %s → %s", i, a, b)
		}
		if a.Kind == core.OJump {
			if want := res.MapTarget(a.Target); b.Target != want {
				return fmt.Errorf("behaviour check: jump target %d remapped to %d, executed %d", a.Target, want, b.Target)
			}
		} else if a.Addr != b.Addr {
			return fmt.Errorf("behaviour check: data address changed at observation %d: %#x → %#x", i, a.Addr, b.Addr)
		}
	}
	return nil
}
