package sched

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"pitchfork/internal/core"
	"pitchfork/internal/isa"
)

// TestPooledNodesPreserveDeterminism interleaves serial and parallel
// explorations back to back — and concurrently — so the state pool
// recycles nodes from prior runs into new ones. Every run must report
// the exact serial result: pooled-node reuse may never leak one
// exploration's bookkeeping into another (the -race CI sweep runs this
// against the pool's concurrent Get/Put too).
func TestPooledNodesPreserveDeterminism(t *testing.T) {
	mk := func() Options {
		return Options{Bound: 20, ForwardHazards: true, MaxStates: 1_000_000}
	}
	reference := mustExplorer(t, mk()).Explore(cascadeGadget(6))
	refSigs := sortedSignatures(reference, true)

	// Sequential churn: every exploration drains and refills the pool.
	for round := 0; round < 5; round++ {
		opts := mk()
		if round%2 == 1 {
			opts.Workers = 4
		}
		res := mustExplorer(t, opts).Explore(cascadeGadget(6))
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
		go func(g int) {
			defer wg.Done()
			opts := mk()
			if g%2 == 1 {
				opts.Workers = 2
			}
			res := mustExplorer(t, opts).Explore(cascadeGadget(6))
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
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestPoolTreesThatEndAtOnce runs the pool on trees that end at the
// root: a halted machine, and a tree cut by MaxStates 1. The root
// starts alone on one deque, so seven of the eight workers explore
// nothing. The result must equal the serial run's, and every worker
// must exit.
func TestPoolTreesThatEndAtOnce(t *testing.T) {
	for _, tc := range []struct {
		name      string
		m         func() *core.Machine
		maxStates int
	}{
		{"halted root", func() *core.Machine { return core.New(isa.NewBuilder(1).MustBuild()) }, 0},
		{"max states 1", func() *core.Machine { return v1Gadget(9) }, 1},
	} {
		before := runtime.NumGoroutine()
		serial := mustExplorer(t, Options{Bound: 20, MaxStates: tc.maxStates}).Explore(tc.m())
		par := mustExplorer(t, Options{Bound: 20, MaxStates: tc.maxStates, Workers: 8}).Explore(tc.m())
		if serial.States != 1 {
			t.Fatalf("%s: serial run explored %d states, want 1", tc.name, serial.States)
		}
		want := serial
		want.Workers = 8
		if !reflect.DeepEqual(par, want) {
			t.Fatalf("%s: parallel %+v, want %+v", tc.name, par, want)
		}
		// A worker that has returned may still be counted for a moment.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after the run, %d before", tc.name, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
