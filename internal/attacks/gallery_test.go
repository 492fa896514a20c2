package attacks

import (
	"strings"
	"testing"

	"pitchfork/internal/core"
	"pitchfork/internal/sched"
)

// explore runs the paper's bound-20 exploration with forwarding
// hazards on.
func explore(t *testing.T, m *core.Machine) sched.Result {
	t.Helper()
	e, err := sched.NewExplorer(sched.Options{Bound: 20, ForwardHazards: true})
	if err != nil {
		t.Fatal(err)
	}
	return e.Explore(m)
}

// TestGalleryLeakExpectations: every figure's schedule runs cleanly
// and leaks (or not) exactly as the paper shows.
func TestGalleryLeakExpectations(t *testing.T) {
	for _, a := range Gallery() {
		a := a
		t.Run(a.ID, func(t *testing.T) {
			recs, err := a.Run()
			if err != nil {
				t.Fatalf("%s: %v", a.ID, err)
			}
			var trace core.Trace
			for _, r := range recs {
				trace = append(trace, r.Obs...)
			}
			if got := trace.HasSecret(); got != a.WantSecretLeak {
				t.Fatalf("%s: secret leak = %t, want %t (trace %s)", a.ID, got, a.WantSecretLeak, trace)
			}
		})
	}
}

// TestGalleryDetectedByExplorer: the leaky figures are found by the
// worst-case explorer without being given the schedule; the mitigated
// ones stay clean.
func TestGalleryDetectedByExplorer(t *testing.T) {
	for _, a := range Gallery() {
		a := a
		if a.ID == "fig2" || a.ID == "fig11" {
			// Outside the tool's schedule set (§4: "Pitchfork only
			// exercises a subset of our semantics; it does not detect
			// SCT violations based on alias prediction, indirect
			// jumps, or return stack buffers").
			continue
		}
		t.Run(a.ID, func(t *testing.T) {
			res := explore(t, a.New())
			if got := !res.SecretFree(); got != a.WantSecretLeak {
				t.Fatalf("%s: explorer found leak = %t, want %t", a.ID, got, a.WantSecretLeak)
			}
		})
	}
}

// TestFig2OutsideToolSubset documents the subset boundary: the
// aliasing-predictor attack needs the execute:fwd directive, which the
// schedule generator never issues.
func TestFig2OutsideToolSubset(t *testing.T) {
	res := explore(t, Figure2().New())
	if !res.SecretFree() {
		t.Fatal("the explorer must not issue aliasing predictions")
	}
}

func TestRender(t *testing.T) {
	out, err := Figure1().Render()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig1", "fetch: true", "execute 2", "read", "rollback"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestGalleryReproducible: running an attack twice yields identical
// traces (determinism at the gallery level).
func TestGalleryReproducible(t *testing.T) {
	for _, a := range Gallery() {
		r1, err := a.Render()
		if err != nil {
			t.Fatal(err)
		}
		r2, err := a.Render()
		if err != nil {
			t.Fatal(err)
		}
		if r1 != r2 {
			t.Fatalf("%s: nondeterministic rendering", a.ID)
		}
	}
}
