// Package pitchfork is a from-scratch Go implementation of
// "Constant-Time Foundations for the New Spectre Era" (Cauligi et al.,
// PLDI 2020): the speculative out-of-order semantics, the speculative
// constant-time (SCT) security property, and the Pitchfork detector,
// together with every substrate the paper's evaluation relies on.
//
// # Architecture: one engine, two domains
//
// Detection is organized around a single domain-parameterized
// speculation engine (internal/sched): the paper's worst-case schedule
// strategy DT(n) (§4.1), one depth-first walk per exploration, an
// always-on visited set of machine fingerprints with an O(1) key,
// exploration budgets, and streaming violation callbacks. The
// engine drives any implementation of its Machine interface — a value
// domain that applies single attacker directives and reports its
// reorder-buffer shape:
//
//	┌────────────────────────┐      ┌────────────────────────────┐
//	│ internal/taint         │      │  internal/sched (engine)   │
//	│ static taint pass:     │      │  DT(n) strategy · DFS      │
//	│ certify · verdicts     │      │  dedup · budgets · stream  │
//	└───────────┬────────────┘      └─────────┬───────┬──────────┘
//	            │                    Machine  │       │  Machine
//	            │             ┌───────────────┘       └───────────────┐
//	            │  ┌──────────┴────────────┐          ┌───────────────┴─────────┐
//	            │  │ concrete domain       │          │ symbolic domain         │
//	            │  │ internal/core + mem   │          │ internal/pitchfork over │
//	            │  │ (labeled words, §3)   │          │ internal/symx (exprs,   │
//	            │  │                       │          │ path conditions, §4.2)  │
//	            │  └──────────┬────────────┘          └───────────────┬─────────┘
//	            │             └───────────────┬───────────────────────┘
//	            │                   ┌─────────┴──────────┐       ┌──────────────────────────┐
//	            └──────────────────▶│  spectre (façade)  │◀──────│ internal/repair          │
//	              certificates ·    │  Analyzer · Repair │       │ mitigation portfolio:    │
//	              hybrid reports    └─────────┬──────────┘       │ fence · mask · ret over  │
//	                                          │                  │ internal/isa patch plans │
//	                                          ▼                  └──────────────────────────┘
//	                                ┌─────────────────────────────────┐
//	                                │ internal/serve (service layer)  │
//	                                │ verdict cache (GreedyDual+disk) │
//	                                │ coalescing · worker slots       │
//	                                │ cmd/spectred · cmd/specload     │
//	                                └─────────────────────────────────┘
//
// Because both domains share the engine, every scaling feature —
// fingerprint state pruning, MaxStates / MaxRetired budgets,
// StopAtFirst, streaming, and cancellation — applies identically to
// concrete and symbolic analysis, and repair re-verifies candidate
// patches on the same engine in either mode. An exploration runs on
// one goroutine; a caller uses several cores by analyzing several
// programs at once on one shared spectre.Analyzer.
//
// Mitigation is a portfolio over one rewriting layer: internal/isa
// patch plans (insert/replace with full address remapping) carry
// three strategies in internal/repair — the paper's §3.6 fences,
// SLH-style load masking, and Figure 13 retpolines for flagged
// returns. The mask strategy follows the classic SLH register
// convention: mem.RMSK (address 0xFFFD) holds the all-ones/all-zeros
// speculation predicate updated branchlessly on each conditional
// edge, and mem.RTMP (0xFFFF) is the reserved rewriter scratch
// register — programs already reading either are refused rather than
// silently miscompiled. The default auto strategy certifies each
// candidate patch and keeps the cheapest by estimated sequential
// cost (instructions retired on the architectural path).
//
// The static speculative-taint pre-analysis (internal/taint) sits in
// front of both: a flow-sensitive fixpoint over the speculative CFG
// that certifies a program free of secret-labeled observations in
// O(|program|) (spectre.WithStaticPass — no explorer is built), and
// otherwise attaches its per-point verdicts to the hybrid report.
// Repair does not read it: every candidate patch is re-verified by the
// explorer.
//
// The supported API surface is the spectre package (pitchfork/spectre):
// a ProgramBuilder, an Analyzer with functional options and streaming,
// context-aware analysis, a stable JSON report schema, and automatic
// portfolio repair (Repair). The service layer
// (internal/serve behind cmd/spectred) exposes the same façade over
// HTTP for CI-shaped repeat traffic: verdicts cached under
// (Program.Fingerprint, Config.CacheKey) in a memory tier that evicts
// by recompute cost and recency (GreedyDual) plus a
// restart-surviving disk tier, in-flight coalescing of identical
// submissions, and queue backpressure; cmd/specload replays the
// detection corpora against it. See README.md for the tour and
// quickstart. The implementation lives under internal/; the root
// package holds only the repository-level benchmark harness
// (bench_test.go) and the cross-domain differential and determinism
// suites.
package pitchfork
