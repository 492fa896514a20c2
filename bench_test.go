// Repository-level benchmark harness: one benchmark per table and
// figure of the paper's evaluation, per DESIGN.md's experiment index.
// The benchmarks regenerate the *shape* of each result — who is
// flagged, under which detection mode, and how analysis cost scales
// with the speculation bound — on this repository's simulator
// substrate.
package pitchfork_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"pitchfork/internal/attacks"
	"pitchfork/internal/core"
	"pitchfork/internal/crypto"
	"pitchfork/internal/ct"
	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
	"pitchfork/internal/pitchfork"
	"pitchfork/internal/sched"
	"pitchfork/internal/serve"
	"pitchfork/internal/symx"
	"pitchfork/internal/testcases"
	"pitchfork/spectre"
)

// ---------------------------------------------------------------------
// Figures 1–13: the attack gallery, one benchmark each. Each iteration
// replays the paper's directive schedule on a fresh machine and checks
// the leak expectation.
// ---------------------------------------------------------------------

func benchAttack(b *testing.B, a attacks.Attack) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		recs, err := a.Run()
		if err != nil {
			b.Fatal(err)
		}
		leak := false
		for _, r := range recs {
			for _, o := range r.Obs {
				leak = leak || o.Secret()
			}
		}
		if leak != a.WantSecretLeak {
			b.Fatalf("%s: leak = %t", a.ID, leak)
		}
	}
}

func BenchmarkFig1SpectreV1(b *testing.B)      { benchAttack(b, attacks.Figure1()) }
func BenchmarkFig2AliasPredictor(b *testing.B) { benchAttack(b, attacks.Figure2()) }
func BenchmarkFig5StoreHazard(b *testing.B)    { benchAttack(b, attacks.Figure5()) }
func BenchmarkFig6SpectreV11(b *testing.B)     { benchAttack(b, attacks.Figure6()) }
func BenchmarkFig7SpectreV4(b *testing.B)      { benchAttack(b, attacks.Figure7()) }
func BenchmarkFig8Fence(b *testing.B)          { benchAttack(b, attacks.Figure8()) }
func BenchmarkFig11SpectreV2(b *testing.B)     { benchAttack(b, attacks.Figure11()) }
func BenchmarkFig13Retpoline(b *testing.B)     { benchAttack(b, attacks.Figure13()) }

// ---------------------------------------------------------------------
// Table 2: per case study × backend, the §4.2.1 two-phase procedure.
// Bounds are the paper's (250 / 20); StopAtFirst keeps flagged cells
// cheap, clean cells pay for the full exploration like the original.
// ---------------------------------------------------------------------

func benchTable2(b *testing.B, caseIdx int, mode ct.Mode, want crypto.Finding) {
	c := crypto.Cases()[caseIdx]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		got, err := crypto.Analyze(c, mode)
		if err != nil {
			b.Fatal(err)
		}
		if got != want {
			b.Fatalf("%s/%s: finding = %s, want %s", c.Name, mode, got, want)
		}
	}
}

func BenchmarkTable2_Donna_C(b *testing.B)     { benchTable2(b, 0, ct.ModeC, crypto.Clean) }
func BenchmarkTable2_Donna_FaCT(b *testing.B)  { benchTable2(b, 0, ct.ModeFaCT, crypto.Clean) }
func BenchmarkTable2_Secretbox_C(b *testing.B) { benchTable2(b, 1, ct.ModeC, crypto.Flagged) }
func BenchmarkTable2_Secretbox_FaCT(b *testing.B) {
	benchTable2(b, 1, ct.ModeFaCT, crypto.Clean)
}
func BenchmarkTable2_SSL3_C(b *testing.B) { benchTable2(b, 2, ct.ModeC, crypto.Flagged) }
func BenchmarkTable2_SSL3_FaCT(b *testing.B) {
	benchTable2(b, 2, ct.ModeFaCT, crypto.FlaggedFwd)
}
func BenchmarkTable2_MEE_C(b *testing.B) { benchTable2(b, 3, ct.ModeC, crypto.Flagged) }
func BenchmarkTable2_MEE_FaCT(b *testing.B) {
	benchTable2(b, 3, ct.ModeFaCT, crypto.FlaggedFwd)
}

// ---------------------------------------------------------------------
// §4.2 corpora: the Kocher suite, the speculative-only v1 suite, and
// the v1.1 suite, at the paper's phase-1 bound.
// ---------------------------------------------------------------------

func benchCorpus(b *testing.B, cases []testcases.Case, bound int, fwd bool, wantFlagged bool) {
	// Build the corpus machines once: the analysis clones its machine
	// up front, so iterations measure the engine, not the compiler.
	machines := make([]*core.Machine, len(cases))
	for j, c := range cases {
		m, err := c.Build()
		if err != nil {
			b.Fatal(err)
		}
		machines[j] = m
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, c := range cases {
			rep, err := pitchfork.Analyze(machines[j], pitchfork.Options{
				Bound:          bound,
				ForwardHazards: fwd || c.NeedsFwdHazards,
				StopAtFirst:    true,
			})
			if err != nil {
				b.Fatal(err)
			}
			if rep.SecretFree() != !wantFlagged {
				b.Fatalf("%s: flagged = %t", c.Name, !rep.SecretFree())
			}
		}
	}
}

func BenchmarkKocherSuite(b *testing.B) {
	benchCorpus(b, testcases.Kocher(), pitchfork.BoundNoHazards, false, true)
}

func BenchmarkSpeculativeOnlyV1Suite(b *testing.B) {
	benchCorpus(b, testcases.SpecOnlyV1(), pitchfork.BoundNoHazards, false, true)
}

func BenchmarkV11Suite(b *testing.B) {
	// Hazard-dependent members run at the phase-2 bound per the paper.
	cases := testcases.V11()
	machines := make([]*core.Machine, len(cases))
	for j, c := range cases {
		m, err := c.Build()
		if err != nil {
			b.Fatal(err)
		}
		machines[j] = m
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, c := range cases {
			bound := pitchfork.BoundNoHazards
			if c.NeedsFwdHazards {
				bound = pitchfork.BoundWithHazards
			}
			rep, err := pitchfork.Analyze(machines[j], pitchfork.Options{
				Bound:          bound,
				ForwardHazards: c.NeedsFwdHazards,
				StopAtFirst:    true,
			})
			if err != nil {
				b.Fatal(err)
			}
			if rep.SecretFree() {
				b.Fatalf("%s not flagged", c.Name)
			}
		}
	}
}

// BenchmarkKocherSymbolic measures the symbolic detector on the
// baseline case with an unconstrained attacker index.
func BenchmarkKocherSymbolic(b *testing.B) {
	sm, err := testcases.Kocher()[0].BuildSym()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := pitchfork.AnalyzeSymbolic(sm, pitchfork.Options{Bound: 30, StopAtFirst: true})
		if err != nil {
			b.Fatal(err)
		}
		if rep.SecretFree() {
			b.Fatal("not flagged")
		}
	}
}

// BenchmarkSymbolicBudget measures the symbolic leg of the corpus
// sweep where it costs most: kocher03 and v11_01 run exactly as the
// sweep runs them — the public API at shipped defaults, x unbound as a
// solver variable, every finding reported — and both explore to the
// state budget. BenchmarkKocherSymbolic stops at its first finding at
// bound 30, so it never reaches this per-state cost. The pinned counts
// fail the benchmark if an optimization changes the exploration.
func BenchmarkSymbolicBudget(b *testing.B) {
	want := []struct {
		c         testcases.Case
		states    int
		truncated bool
	}{
		{testcases.Kocher()[2], 200_000, true}, // kocher03
		{testcases.V11()[0], 200_000, true},    // v11_01
	}
	an, err := spectre.New(spectre.WithSymbolic(true))
	if err != nil {
		b.Fatal(err)
	}
	progs := make([]*spectre.Program, len(want))
	for i, w := range want {
		prog, err := spectre.CompileCTL(w.c.Source(), spectre.ModeC)
		if err != nil {
			b.Fatalf("%s: %v", w.c.Name, err)
		}
		if !prog.SymbolicGlobal("x", "x") {
			b.Fatalf("%s: no global x", w.c.Name)
		}
		progs[i] = prog
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, w := range want {
			rep, err := an.Run(ctx, progs[k])
			if err != nil {
				b.Fatalf("%s: %v", w.c.Name, err)
			}
			if rep.States != w.states || rep.Truncated != w.truncated {
				b.Fatalf("%s: states=%d truncated=%t, pinned %d/%t", w.c.Name, rep.States, rep.Truncated, w.states, w.truncated)
			}
		}
	}
}

// BenchmarkServeCacheHit measures a warm verdict-cache hit through the
// spectred handler: reading and digesting the request body, the
// body → cache key memo, the cache lookup and the provenance splice
// into the stored envelope. A hit neither decodes, compiles nor
// fingerprints its request, nor rescans the stored verdict, so
// v11_01's large report and kocher01's small one separate the
// per-request cost from the per-byte one (the splice). The timed loop
// writes to a discardWriter: a recorder growing a buffer for the
// large report would cost more than the handler itself.
func BenchmarkServeCacheHit(b *testing.B) {
	srv, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Drain()
	h := srv.Handler()
	for _, c := range []testcases.Case{testcases.V11()[0], testcases.Kocher()[0]} {
		body, err := json.Marshal(serve.AnalyzeRequest{Source: c.Source()})
		if err != nil {
			b.Fatal(err)
		}
		for _, op := range []string{"analyze", "repair"} {
			send := func() *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+op, bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("%s %s: status %d: %s", op, c.Name, rec.Code, rec.Body.Bytes())
				}
				return rec
			}
			send() // the miss that fills the cache
			if !bytes.Contains(send().Body.Bytes(), []byte(`"cacheHit":true`)) {
				b.Fatalf("%s %s: repeat request was not a cache hit", op, c.Name)
			}
			b.Run(op+"/"+c.Name, func(b *testing.B) {
				before := srv.Stats()
				w := &discardWriter{header: http.Header{}}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					clear(w.header)
					w.status = 0
					h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/"+op, bytes.NewReader(body)))
					if w.status != http.StatusOK {
						b.Fatalf("%s %s: status %d", op, c.Name, w.status)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(w.n)/float64(b.N), "resp-B/op")
				after := srv.Stats()
				if hits := after.MemHits + after.DiskHits - before.MemHits - before.DiskHits; hits < int64(b.N) {
					b.Fatalf("%s %s: %d cache hits for %d requests", op, c.Name, hits, b.N)
				}
			})
		}
	}
}

// discardWriter is an http.ResponseWriter that keeps the status and
// counts the body bytes it drops.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *discardWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.n += len(p)
	return len(p), nil
}

// ---------------------------------------------------------------------
// §4.2 tractability: schedule-space growth with the speculation bound,
// with and without forwarding-hazard detection — the reason the paper
// drops from bound 250 to bound 20 when hazards are on.
// ---------------------------------------------------------------------

func kocherMachine() *core.Machine {
	m, err := testcases.Kocher()[0].Build()
	if err != nil {
		panic(err)
	}
	return m
}

func BenchmarkScheduleGeneration(b *testing.B) {
	for _, bound := range []int{5, 20, 100, 250} {
		for _, fwd := range []bool{false, true} {
			name := fmt.Sprintf("bound=%d/fwd=%t", bound, fwd)
			b.Run(name, func(b *testing.B) {
				// The exploration clones the machine up front, so one
				// fixture serves every iteration and the timed loop
				// measures schedule generation, not the CTL compiler.
				m := kocherMachine()
				b.ReportAllocs()
				b.ResetTimer()
				var res sched.Result
				for i := 0; i < b.N; i++ {
					e, err := sched.NewExplorer(sched.Options{Bound: bound, ForwardHazards: fwd, MaxStates: 2_000_000})
					if err != nil {
						b.Fatal(err)
					}
					res = e.Explore(m)
				}
				b.ReportMetric(float64(res.Paths), "paths")
				b.ReportMetric(float64(res.States), "states")
			})
		}
	}
}

// BenchmarkScheduleGenerationParallel is BenchmarkScheduleGeneration on
// the work-stealing pool, one worker per CPU core. The acceptance bar
// for the pool is ≥2× wall-clock on bound=250/fwd=false versus the
// serial benchmark above, with identical path and state counts.
func BenchmarkScheduleGenerationParallel(b *testing.B) {
	workers := runtime.NumCPU()
	for _, bound := range []int{100, 250} {
		for _, fwd := range []bool{false, true} {
			name := fmt.Sprintf("bound=%d/fwd=%t", bound, fwd)
			b.Run(name, func(b *testing.B) {
				e, err := sched.NewExplorer(sched.Options{
					Bound: bound, ForwardHazards: fwd,
					MaxStates: 2_000_000, Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				m := kocherMachine()
				b.ReportAllocs()
				b.ResetTimer()
				var res sched.Result
				for i := 0; i < b.N; i++ {
					res = e.Explore(m)
				}
				b.ReportMetric(float64(res.Paths), "paths")
				b.ReportMetric(float64(res.States), "states")
			})
		}
	}
}

// BenchmarkScheduleGenerationDedup measures fingerprint pruning on the
// forwarding-hazard exploration, where reconverging fork arms make
// dedup bite hardest.
func BenchmarkScheduleGenerationDedup(b *testing.B) {
	for _, bound := range []int{20, 100} {
		name := fmt.Sprintf("bound=%d/fwd=true", bound)
		b.Run(name, func(b *testing.B) {
			e, err := sched.NewExplorer(sched.Options{
				Bound: bound, ForwardHazards: true,
				MaxStates: 2_000_000, DedupEntries: 1 << 20,
			})
			if err != nil {
				b.Fatal(err)
			}
			m := kocherMachine()
			b.ReportAllocs()
			b.ResetTimer()
			var res sched.Result
			for i := 0; i < b.N; i++ {
				res = e.Explore(m)
			}
			b.ReportMetric(float64(res.States), "states")
			b.ReportMetric(float64(res.DedupHits), "dedup-hits")
		})
	}
}

// ---------------------------------------------------------------------
// Symbolic-domain schedule generation on the unified engine: the same
// serial / parallel / dedup trio as the concrete sweep above, with the
// attacker index x unconstrained. These are the CI sweep's symbolic
// throughput trackers.
// ---------------------------------------------------------------------

func kocherSymMachine() *pitchfork.SymMachine {
	sm, err := testcases.Kocher()[0].BuildSym()
	if err != nil {
		panic(err)
	}
	return sm
}

func BenchmarkSymbolicScheduleGeneration(b *testing.B) {
	for _, bound := range []int{10, 20, 30} {
		for _, fwd := range []bool{false, true} {
			name := fmt.Sprintf("bound=%d/fwd=%t", bound, fwd)
			b.Run(name, func(b *testing.B) {
				sm := kocherSymMachine()
				b.ReportAllocs()
				b.ResetTimer()
				var rep pitchfork.Report
				for i := 0; i < b.N; i++ {
					var err error
					rep, err = pitchfork.AnalyzeSymbolic(sm, pitchfork.Options{
						Bound: bound, ForwardHazards: fwd, MaxStates: 2_000_000,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(rep.Paths), "paths")
				b.ReportMetric(float64(rep.States), "states")
			})
		}
	}
}

// BenchmarkSymbolicScheduleGenerationParallel runs the symbolic
// exploration on the work-stealing pool, one worker per CPU core —
// path and state counts must match the serial benchmark above.
func BenchmarkSymbolicScheduleGenerationParallel(b *testing.B) {
	workers := runtime.NumCPU()
	for _, bound := range []int{20, 30} {
		for _, fwd := range []bool{false, true} {
			name := fmt.Sprintf("bound=%d/fwd=%t", bound, fwd)
			b.Run(name, func(b *testing.B) {
				sm := kocherSymMachine()
				b.ReportAllocs()
				b.ResetTimer()
				var rep pitchfork.Report
				for i := 0; i < b.N; i++ {
					var err error
					rep, err = pitchfork.AnalyzeSymbolic(sm, pitchfork.Options{
						Bound: bound, ForwardHazards: fwd, MaxStates: 2_000_000, Workers: workers,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(rep.Paths), "paths")
				b.ReportMetric(float64(rep.States), "states")
			})
		}
	}
}

// BenchmarkSymbolicScheduleGenerationDedup measures fingerprint
// pruning of re-converged symbolic states (path condition included in
// the fingerprint).
func BenchmarkSymbolicScheduleGenerationDedup(b *testing.B) {
	for _, bound := range []int{20, 30} {
		name := fmt.Sprintf("bound=%d/fwd=true", bound)
		b.Run(name, func(b *testing.B) {
			sm := kocherSymMachine()
			b.ReportAllocs()
			b.ResetTimer()
			var rep pitchfork.Report
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = pitchfork.AnalyzeSymbolic(sm, pitchfork.Options{
					Bound: bound, ForwardHazards: true, MaxStates: 2_000_000, DedupEntries: 1 << 20,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.States), "states")
			b.ReportMetric(float64(rep.DedupHits), "dedup-hits")
		})
	}
}

// ---------------------------------------------------------------------
// Static pre-analysis: cost of the taint pass itself (the price of a
// certificate).
// ---------------------------------------------------------------------

// BenchmarkStaticPass measures the flow-sensitive taint analysis over
// every corpus machine: the fixed cost a hybrid run pays before the
// explorer starts (and the entire cost of certifying a safe program).
func BenchmarkStaticPass(b *testing.B) {
	cases := allCorpora()
	machines := make([]*core.Machine, len(cases))
	for j, c := range cases {
		m, err := c.Build()
		if err != nil {
			b.Fatal(err)
		}
		machines[j] = m
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range machines {
			rep, err := taintOfMachine(machines[j])
			if err != nil {
				b.Fatal(err)
			}
			if rep.Safe() {
				b.Fatalf("%s statically safe; the corpus is all leaky", cases[j].Name)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Theorems: the property-test workloads as benchmarks, measuring the
// semantics itself.
// ---------------------------------------------------------------------

func BenchmarkSequentialEquivalence(b *testing.B) {
	a := attacks.Figure1()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := a.New()
		if _, err := m.Run(a.Schedule); err != nil {
			b.Fatal(err)
		}
		seq := a.New()
		if _, _, err := core.RunSequential(seq, m.Retired); err != nil {
			b.Fatal(err)
		}
		if !m.ApproxEqual(seq) {
			b.Fatal("OoO and sequential states diverge")
		}
	}
}

func BenchmarkMachineStep(b *testing.B) {
	a := attacks.Figure1()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := a.New()
		for _, d := range a.Schedule {
			if _, err := m.Step(d); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSCTCheck(b *testing.B) {
	a := attacks.Figure1()
	m := a.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := core.CheckSCT(m, a.Schedule, 4, newRng(int64(i))); res == nil {
			b.Fatal("violation not observed")
		}
	}
}

// ---------------------------------------------------------------------
// Substrate microbenchmarks: compiler, solver, cache model.
// ---------------------------------------------------------------------

func BenchmarkCTCompile(b *testing.B) {
	src := testcases.Kocher()[0].Src
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ct.Compile(src, ct.ModeC); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolver(b *testing.B) {
	x := symx.NewVar("x", mem.Public)
	s := symx.NewSolver()
	cond := symx.PathCondition{}.
		With(symx.Constraint{E: symx.Apply(isa.OpGt, x, symx.CW(4)), Truthy: true}).
		With(symx.Constraint{E: symx.Apply(isa.OpLt, x, symx.CW(64)), Truthy: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Solve(cond); !ok {
			b.Fatal("unsolved")
		}
	}
}

// solverChain builds a depth-n path condition of the shape symbolic
// exploration produces: branch bounds plus concretization pins over
// one attacker variable.
func solverChain(n int) symx.PathCondition {
	x := symx.NewVar("x", mem.Public)
	p := symx.PathCondition{}.
		With(symx.Constraint{E: symx.Apply(isa.OpLt, x, symx.CW(1<<16)), Truthy: true}).
		With(symx.Constraint{E: symx.Apply(isa.OpGe, x, symx.CW(8)), Truthy: true})
	for i := 0; i < n; i++ {
		p = p.With(symx.Constraint{
			E:      symx.Apply(isa.OpEq, symx.Apply(isa.OpAdd, x, symx.CW(mem.Word(0x1000+i))), symx.CW(0)),
			Truthy: false, // x + k ≠ 0: true but unpruned, keeps the chain growing
		})
	}
	return p
}

// BenchmarkSolverColdStart solves a fresh chain in a fresh solver —
// the full propagate-then-search pipeline with nothing memoized.
func BenchmarkSolverColdStart(b *testing.B) {
	cond := solverChain(12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := symx.NewSolver()
		if _, ok := s.Solve(cond); !ok {
			b.Fatal("unsolved")
		}
	}
}

// BenchmarkSolverIncremental extends a warm chain by one conjunct per
// iteration and re-solves — the push/pop pattern exploration drives
// (each branch adds one constraint to an already-solved parent).
func BenchmarkSolverIncremental(b *testing.B) {
	x := symx.NewVar("x", mem.Public)
	s := symx.NewSolver()
	base := solverChain(4)
	if _, ok := s.Solve(base); !ok {
		b.Fatal("unsolved base")
	}
	b.ReportAllocs()
	b.ResetTimer()
	p := base
	for i := 0; i < b.N; i++ {
		p = p.With(symx.Constraint{
			E:      symx.Apply(isa.OpEq, x, symx.CW(mem.Word(1<<20+i))),
			Truthy: false,
		})
		if _, ok := s.Solve(p); !ok {
			b.Fatal("unsolved")
		}
		if p.Len() > 64 { // keep the chain bounded
			p = base
		}
	}
}

// BenchmarkSolverCacheHit re-solves one warm query — the repeated
// Feasible/Concretize pattern on an unchanged path condition.
func BenchmarkSolverCacheHit(b *testing.B) {
	s := symx.NewSolver()
	cond := solverChain(12)
	if _, ok := s.Solve(cond); !ok {
		b.Fatal("unsolved")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Solve(cond); !ok {
			b.Fatal("unsolved")
		}
	}
}

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func BenchmarkCacheRecovery(b *testing.B) {
	fig, _ := spectre.FigureByID("fig1")
	trace, err := fig.Trace()
	if err != nil {
		b.Fatal(err)
	}
	cache, _ := spectre.NewCache(64, 4, 1)
	fr := spectre.FlushReload{Cache: cache, ProbeBase: 0x44, Stride: 1, Slots: 256}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hot := fr.Recover(trace); len(hot) != 2 {
			b.Fatalf("hot = %v", hot)
		}
	}
}

// ---------------------------------------------------------------------
// Fence repair: the counterexample-guided synthesis loop end to end —
// detect, map findings to speculation sources, insert fences,
// re-verify, minimize.
// ---------------------------------------------------------------------

func benchRepair(b *testing.B, build func() (*spectre.Program, error)) {
	b.ReportAllocs()
	an, err := spectre.New(spectre.WithDedup(1 << 20))
	if err != nil {
		b.Fatal(err)
	}
	// Analyzer construction is setup, not repair work.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := build()
		if err != nil {
			b.Fatal(err)
		}
		res, err := an.Repair(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		if res.Outcome != spectre.RepairRepaired {
			b.Fatalf("outcome = %s", res.Outcome)
		}
	}
}

func BenchmarkRepairKocher01(b *testing.B) {
	benchRepair(b, func() (*spectre.Program, error) {
		return spectre.CompileCTL(testcases.Kocher()[0].Source(), spectre.ModeC)
	})
}

func BenchmarkRepairFig7SpectreV4(b *testing.B) {
	benchRepair(b, func() (*spectre.Program, error) {
		f, ok := spectre.FigureByID("fig7")
		if !ok {
			b.Fatal("fig7 missing from the gallery")
		}
		return f.Program(), nil
	})
}

// BenchmarkRepairPortfolio prices each mitigation strategy — and the
// auto portfolio that certifies all of them and keeps the cheapest —
// over the Kocher suite, so the cost of portfolio repair relative to
// a pinned strategy stays visible in the benchmark trail. A pinned
// strategy may legitimately exhaust on cases its mitigation cannot
// cover (a retpoline cannot fix a branch gadget with no return), so
// only the shapes that must succeed assert a repaired count.
func BenchmarkRepairPortfolio(b *testing.B) {
	cases := testcases.Kocher()
	for _, strat := range []string{
		spectre.StrategyAuto, spectre.StrategyFence, spectre.StrategyMask, spectre.StrategyRet,
	} {
		b.Run(strat, func(b *testing.B) {
			b.ReportAllocs()
			an, err := spectre.New(
				spectre.WithWorkers(runtime.NumCPU()),
				spectre.WithDedup(1<<20),
				spectre.WithRepairStrategy(strat),
			)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				items := make([]spectre.BatchItem, len(cases))
				for j, c := range cases {
					p, err := spectre.CompileCTL(c.Source(), spectre.ModeC)
					if err != nil {
						b.Fatal(err)
					}
					items[j] = spectre.BatchItem{Name: c.Name, Program: p}
				}
				secured := 0
				for _, r := range an.RepairAll(context.Background(), items) {
					if r.Err == nil && r.Result.SecretFree() {
						secured++
					}
				}
				if secured == 0 && (strat == spectre.StrategyAuto || strat == spectre.StrategyFence) {
					b.Fatal("no case secured")
				}
			}
		})
	}
}

func BenchmarkRepairAllKocherSuite(b *testing.B) {
	b.ReportAllocs()
	an, err := spectre.New(spectre.WithWorkers(runtime.NumCPU()), spectre.WithDedup(1<<20))
	if err != nil {
		b.Fatal(err)
	}
	cases := testcases.Kocher()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items := make([]spectre.BatchItem, len(cases))
		for j, c := range cases {
			p, err := spectre.CompileCTL(c.Source(), spectre.ModeC)
			if err != nil {
				b.Fatal(err)
			}
			items[j] = spectre.BatchItem{Name: c.Name, Program: p}
		}
		secured := 0
		for _, r := range an.RepairAll(context.Background(), items) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			if r.Result.SecretFree() {
				secured++
			}
		}
		if secured == 0 {
			b.Fatal("no case secured")
		}
	}
}
