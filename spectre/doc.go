// Package spectre is the public façade of the Pitchfork reproduction:
// the one supported way to drive the speculative constant-time (SCT)
// detector of "Constant-Time Foundations for the New Spectre Era"
// (Cauligi et al., PLDI 2020) without importing any internal package.
//
// The package offers three things:
//
//   - A ProgramBuilder for assembling programs in the paper's abstract
//     ISA — instructions, memory layouts, and secret/public labels —
//     plus CompileCTL for the repository's C-like CTL language.
//
//   - An Analyzer, constructed with functional options (WithBound,
//     WithForwardHazards, WithMaxStates, WithMaxRetired,
//     WithStopAtFirst, WithSymbolic), that runs the paper's
//     worst-case-schedule exploration in concrete or symbolic mode.
//     Both modes run on one domain-parameterized speculation engine,
//     so every option composes with every mode, and both prune
//     re-converged exploration states through a visited set of
//     machine fingerprints that is always on (Report.DedupHits counts
//     the pruned states). A clean verdict rests on the speculation
//     bound and on that 64-bit fingerprint: two distinct states with
//     one fingerprint would prune the second, at odds of about n²/2⁶⁵
//     for n explored states (~10⁻¹¹ at 20 000). That a leak found at
//     one bound is also found at every larger bound is checked on the
//     repository's corpora and figure gallery, not proven.
//     Analysis is context-aware: cancelling the context makes Run
//     return promptly with the findings accumulated so far, and Stream
//     delivers each Finding through a callback as exploration proceeds
//     — the hook batching, sharding, and serving layers build on. An
//     Analyzer is immutable and safe to share across goroutines. Each
//     run explores on the calling goroutine; a caller uses several
//     cores by analyzing several programs at once: one goroutine per
//     program, one shared Analyzer.
//
//   - A stable, JSON-serializable Finding/Report schema: Spectre
//     variant kind, violating program counter, the guarding
//     speculation sources, the leaking observation, the attacker's
//     directive schedule, and (in symbolic mode) a witness assignment.
//
//   - Automatic mitigation: Repair synthesizes a minimal certified
//     patch by counterexample-guided iteration — patch each finding's
//     speculation source, re-verify, minimize in cost order — over a
//     portfolio of strategies:
//     StrategyFence (§3.6 fences), StrategyMask (SLH-style load
//     hardening), StrategyRet (Figure 13 retpolines), or the default
//     StrategyAuto, which runs all three and keeps the cheapest
//     certified patch by estimated sequential cost. The RepairResult
//     reports the patched Program, the chosen strategy, a RepairCost
//     (patch sites, instruction growth, sequential-cost estimate,
//     exploration-effort delta), and the per-strategy portfolio rows.
//
// A minimal audit looks like:
//
//	prog := spectre.NewProgramBuilder(). /* … build the victim … */ MustBuild()
//	an, err := spectre.New(spectre.WithBound(20), spectre.WithStopAtFirst(true))
//	if err != nil { /* … */ }
//	rep, err := an.Run(context.Background(), prog)
//	for _, f := range rep.Findings {
//		fmt.Println(f)
//	}
//
// See the package example for a complete builder → analyze → findings
// walk-through on the classic Spectre v1 bounds-check-bypass gadget
// (Kocher case 1).
//
// # Configuration as data
//
// The functional options are a thin layer over an exported,
// JSON-serializable Config: New applies options to DefaultConfig and
// hands the result to NewFromConfig, so the two construction paths are
// interchangeable and Analyzer.Config returns the resolved snapshot
// either way. A partial JSON document unmarshalled onto DefaultConfig
// is the supported deserialization recipe — absent fields keep their
// defaults. Config.CacheKey derives a canonical digest over every
// field, with the invariant that two configurations whose reports can
// differ in any byte never share a key.
//
// # Wire schema versioning
//
// The JSON encodings of Report, Finding, Observation, RepairResult,
// Config, and the Program wire form are a stable schema, pinned by
// golden fixtures under testdata/. The compatibility policy:
//
//   - ReportSchemaVersion names the current schema revision ("2";
//     revision "1" also carried a workers field). Within a revision,
//     changes are strictly additive and new fields are omitempty, so
//     existing encodings remain byte-identical and old readers ignore
//     what they don't know. Renaming, removing, or re-typing a field
//     requires a new revision.
//
//   - A Report with an empty SchemaVersion is of the current
//     revision: the library leaves the field empty, and the serving
//     layer (cmd/spectred) stamps it explicitly on every response;
//     library callers may ignore it.
//
//   - Program.Fingerprint and Config.CacheKey are stability-pinned to
//     fixed digests over a fixed corpus (stability_test.go), because
//     persisted verdict caches key on them. Any change that rotates
//     either digest must bump the corresponding version tag (the
//     program wire form's version field, the config key's domain
//     prefix) so old cache entries are orphaned, never aliased.
//
//   - CacheHit and Coalesced on Report are serving-layer provenance:
//     the library never sets them, and equal-keyed requests are
//     guaranteed byte-identical reports only after clearing them.
package spectre
