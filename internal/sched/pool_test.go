package sched

import (
	"sync"
	"testing"
)

// TestPooledNodesPreserveDeterminism runs explorations back to back —
// and concurrently — so the state pool recycles nodes from prior runs
// into new ones. Every run must report the exact result of the first:
// pooled-node reuse may never leak one exploration's bookkeeping into
// another (the -race CI sweep runs this against the pool's concurrent
// Get/Put too).
func TestPooledNodesPreserveDeterminism(t *testing.T) {
	mk := func() Options {
		return Options{Bound: 20, ForwardHazards: true, MaxStates: 1_000_000}
	}
	reference := mustExplorer(t, mk()).Explore(cascadeGadget(6))
	refSigs := sortedSignatures(reference, true)

	// Sequential churn: every exploration drains and refills the pool.
	for round := 0; round < 5; round++ {
		res := mustExplorer(t, mk()).Explore(cascadeGadget(6))
		if res.States != reference.States || res.Paths != reference.Paths {
			t.Fatalf("round %d: %d states / %d paths, want %d / %d",
				round, res.States, res.Paths, reference.States, reference.Paths)
		}
		sigs := sortedSignatures(res, true)
		if len(sigs) != len(refSigs) {
			t.Fatalf("round %d: %d violations, want %d", round, len(sigs), len(refSigs))
		}
		for i := range sigs {
			if sigs[i] != refSigs[i] {
				t.Fatalf("round %d: violation %d differs:\n got  %s\n want %s", round, i, sigs[i], refSigs[i])
			}
		}
	}

	// Concurrent churn: explorations racing on the shared pool must
	// still be mutually independent.
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := mustExplorer(t, mk()).Explore(cascadeGadget(6))
			if res.States != reference.States || res.Paths != reference.Paths {
				errs <- "state/path counts drifted under concurrent pool reuse"
				return
			}
			sigs := sortedSignatures(res, true)
			for i := range sigs {
				if sigs[i] != refSigs[i] {
					errs <- "violation multiset drifted under concurrent pool reuse"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
