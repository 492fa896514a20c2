package core

import (
	"fmt"
	"math/rand"

	"pitchfork/internal/mem"
)

// SCTResult reports the outcome of one speculative constant-time
// comparison (Def. 3.1) between two low-equivalent configurations run
// under the same schedule.
type SCTResult struct {
	Violation bool
	Reason    string
	TraceA    Trace
	TraceB    Trace
}

// CompareTraces checks one instance of Def. 3.1: it runs clones of the
// two machines under the same schedule D and reports a violation if
// the schedule is well-formed for one but not the other, the
// observation traces differ, or the final configurations are not
// low-equivalent. The callers' machines are not mutated.
func CompareTraces(a, b *Machine, d Schedule) SCTResult {
	if !a.LowEquiv(b) {
		return SCTResult{Violation: true, Reason: "initial configurations are not low-equivalent"}
	}
	ma, mb := a.Clone(), b.Clone()
	ta, errA := ma.Run(d)
	tb, errB := mb.Run(d)
	res := SCTResult{TraceA: ta, TraceB: tb}
	if (errA == nil) != (errB == nil) {
		res.Violation = true
		res.Reason = fmt.Sprintf("schedule well-formedness diverges: %v vs %v", errA, errB)
		return res
	}
	if !ta.Equal(tb) {
		res.Violation = true
		res.Reason = diffTraces(ta, tb)
		return res
	}
	if errA == nil && !ma.LowEquiv(mb) {
		res.Violation = true
		res.Reason = "final configurations are not low-equivalent"
		return res
	}
	return res
}

func diffTraces(a, b Trace) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("traces diverge at observation %d: %s vs %s", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("trace lengths diverge: %d vs %d", len(a), len(b))
}

// VarySecrets returns a low-equivalent variant of m: every
// secret-labeled register and memory word is replaced with a value
// drawn from rng, leaving public data untouched. The result satisfies
// m ≃pub VarySecrets(m, rng) by construction and serves as the
// universally quantified C′ of Def. 3.1 in randomized checking.
func VarySecrets(m *Machine, rng *rand.Rand) *Machine {
	c := m.Clone()
	for _, r := range c.Regs.Registers() {
		v := c.Regs.Read(r)
		if v.IsSecret() {
			c.Regs.Write(r, mem.V(mem.Word(rng.Uint64()), v.L))
		}
	}
	for _, a := range c.Mem.Addresses() {
		v := c.Mem.Read(a)
		if v.IsSecret() {
			c.Mem.Write(a, mem.V(mem.Word(rng.Uint64()), v.L))
		}
	}
	return c
}

// CheckSCT randomly instantiates Def. 3.1: it draws trials secret
// variations of m and compares traces under d. The first violation is
// returned; a nil pointer means no violation was found (which, being a
// randomized check, under-approximates — use the taint-based checkers
// for soundness).
func CheckSCT(m *Machine, d Schedule, trials int, rng *rand.Rand) *SCTResult {
	for t := 0; t < trials; t++ {
		variant := VarySecrets(m, rng)
		res := CompareTraces(m, variant, d)
		if res.Violation {
			return &res
		}
	}
	return nil
}

// SecretFree runs a clone of m under d and reports whether the trace
// is free of secret-labeled observations. By Theorem B.9 (label
// stability), a secret-free speculative trace implies a secret-free
// sequential trace; conversely a secret-labeled observation under some
// schedule is exactly what the Pitchfork detector flags as an SCT
// violation.
func SecretFree(m *Machine, d Schedule) (bool, Trace, error) {
	c := m.Clone()
	trace, err := c.Run(d)
	if err != nil {
		return false, trace, err
	}
	return !trace.HasSecret(), trace, nil
}
