package sched

import (
	"math/rand"
	"slices"
	"testing"

	"pitchfork/internal/core"
)

// chainPath is one path of the chain property tests: its schedule
// reference beside a naive model, a slice copied on every fork.
type chainPath struct {
	ref   schedRef
	model core.Schedule
}

// push extends both sides by d.
func (p *chainPath) push(d core.Directive) {
	p.ref = p.ref.push(d)
	p.model = append(slices.Clip(p.model), d)
}

// fork returns an independent sibling sharing p's prefix.
func (p *chainPath) fork() chainPath {
	return chainPath{ref: p.ref, model: slices.Clone(p.model)}
}

// agrees reports whether the chain materializes exactly to the model.
func (p *chainPath) agrees() bool {
	got := p.ref.materialize()
	return slices.Equal(got, p.model) && (got == nil) == (len(p.model) == 0)
}

// TestSchedChainMatchesModel runs random push/fork/drop sequences over
// a family of paths: after every operation each path's chain must
// materialize to its naive copied-slice model. Every pushed directive
// is unique, so a path that saw a sibling's extension would differ.
func TestSchedChainMatchesModel(t *testing.T) {
	next := 0
	fresh := func() core.Directive {
		next++
		return core.Execute(next)
	}
	rng := rand.New(rand.NewSource(3))
	for run := 0; run < 200; run++ {
		paths := []chainPath{{}}
		for op := 0; op < 150; op++ {
			k := rng.Intn(len(paths))
			switch r := rng.Intn(10); {
			case r < 6:
				paths[k].push(fresh())
			case r < 8 && len(paths) < 12:
				paths = append(paths, paths[k].fork())
			case r == 8 && len(paths) > 1:
				paths = slices.Delete(paths, k, k+1)
			}
			for i := range paths {
				if !paths[i].agrees() {
					t.Fatalf("run %d op %d path %d: chain %v, model %v", run, op, i, paths[i].ref.materialize(), paths[i].model)
				}
			}
		}
	}
}

// TestSchedChainRunGrowth checks node sizing: a lone path fills runs
// that double from schedRunMin up to schedRunMax, and a fork arm's own
// run starts at schedRunMin again.
func TestSchedChainRunGrowth(t *testing.T) {
	var p chainPath
	for i := 0; i < 1000; i++ {
		p.push(core.Execute(i))
	}
	var caps []int
	for nd := p.ref.node; nd != nil; nd = nd.parent {
		caps = append(caps, len(nd.ds))
	}
	slices.Reverse(caps)
	want := schedRunMin
	for i, c := range caps {
		if c != want {
			t.Fatalf("run %d has capacity %d, want %d (all: %v)", i, c, want, caps)
		}
		want = min(2*want, schedRunMax)
	}
	if !p.agrees() {
		t.Fatal("long chain diverged from its model")
	}
	// Siblings at the same cell: one extends the shared run, the other
	// starts its own small one.
	a, b := p.fork(), p.fork()
	a.push(core.Retire())
	b.push(core.Fetch())
	if a.ref.node != p.ref.node || len(b.ref.node.ds) != schedRunMin || b.ref.node.parent != p.ref.node {
		t.Fatal("the first sibling must extend the shared run and the second start a minimal one")
	}
	if !a.agrees() || !b.agrees() || !p.agrees() {
		t.Fatal("sibling chains diverged from their models")
	}
}
