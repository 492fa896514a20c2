package sched

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"pitchfork/internal/core"
	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

// violationKey reduces a violation to its schedule-independent
// signature, for set comparisons across exploration strategies.
func violationKey(v Violation) string {
	return fmt.Sprintf("%s|%s|%d", v.Kind, v.Obs, v.PC)
}

// sortedSignatures renders each violation as signature+schedule, sorted,
// so serial and parallel results compare as multisets.
func sortedSignatures(res Result, withSchedule bool) []string {
	out := make([]string, len(res.Violations))
	for i, v := range res.Violations {
		out[i] = violationKey(v)
		if withSchedule {
			out[i] += "|" + v.Schedule.String()
		}
	}
	sort.Strings(out)
	return out
}

func mustExplorer(t *testing.T, opts Options) *Explorer {
	t.Helper()
	e, err := NewExplorer(opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestParallelMatchesSerial(t *testing.T) {
	gadgets := map[string]func() *core.Machine{
		"v1":  func() *core.Machine { return v1Gadget(9) },
		"v11": v11Gadget,
		"v4":  v4Gadget,
	}
	for name, mk := range gadgets {
		for _, fwd := range []bool{false, true} {
			serial := mustExplorer(t, Options{Bound: 20, ForwardHazards: fwd}).Explore(mk())
			par := mustExplorer(t, Options{Bound: 20, ForwardHazards: fwd, Workers: 4}).Explore(mk())
			if par.Workers != 4 || serial.Workers != 1 {
				t.Fatalf("%s/fwd=%t: workers not recorded: %d/%d", name, fwd, serial.Workers, par.Workers)
			}
			if serial.States != par.States || serial.Paths != par.Paths {
				t.Fatalf("%s/fwd=%t: serial %d states %d paths, parallel %d states %d paths",
					name, fwd, serial.States, serial.Paths, par.States, par.Paths)
			}
			ss, ps := sortedSignatures(serial, true), sortedSignatures(par, true)
			if len(ss) != len(ps) {
				t.Fatalf("%s/fwd=%t: %d serial vs %d parallel violations", name, fwd, len(ss), len(ps))
			}
			for i := range ss {
				if ss[i] != ps[i] {
					t.Fatalf("%s/fwd=%t: violation sets differ:\n serial   %s\n parallel %s", name, fwd, ss[i], ps[i])
				}
			}
		}
	}
}

// cascadeGadget chains the Figure 1 gadget with n extra conditional
// branches, giving the exploration tree ~2^n paths — enough work to
// put real pressure on work stealing and the atomic budgets.
func cascadeGadget(n int) *core.Machine {
	b := isa.NewBuilder(1)
	b.Br(isa.OpGt, []isa.Operand{isa.ImmW(4), isa.R(ra)}, 2, 4)
	b.Load(rb, isa.ImmW(0x40), isa.R(ra))
	b.Load(rc, isa.ImmW(0x44), isa.R(rb))
	for i := 0; i < n; i++ {
		here := b.Here()
		b.Br(isa.OpGt, []isa.Operand{isa.ImmW(4), isa.R(ra)}, here+1, here+1)
	}
	b.Region(0x40, mem.Pub(1), mem.Pub(2), mem.Pub(3), mem.Pub(4))
	b.Region(0x44, mem.Pub(5), mem.Pub(6), mem.Pub(7), mem.Pub(8))
	b.Region(0x48, mem.Sec(0xA0), mem.Sec(0xA1), mem.Sec(0xA2), mem.Sec(0xA3))
	m := core.New(b.MustBuild())
	m.Regs.Write(ra, mem.Pub(9))
	return m
}

func TestParallelMatchesSerialOnWideTree(t *testing.T) {
	serial := mustExplorer(t, Options{Bound: 20, MaxStates: 1_000_000}).Explore(cascadeGadget(10))
	par := mustExplorer(t, Options{Bound: 20, MaxStates: 1_000_000, Workers: 8}).Explore(cascadeGadget(10))
	if serial.Paths < 1000 {
		t.Fatalf("cascade too small to stress the pool: %d paths", serial.Paths)
	}
	if serial.States != par.States || serial.Paths != par.Paths {
		t.Fatalf("serial %d states / %d paths, parallel %d states / %d paths",
			serial.States, serial.Paths, par.States, par.Paths)
	}
	ss, ps := sortedSignatures(serial, true), sortedSignatures(par, true)
	if len(ss) != len(ps) {
		t.Fatalf("violation counts differ: %d vs %d", len(ss), len(ps))
	}
	for i := range ss {
		if ss[i] != ps[i] {
			t.Fatalf("violation sets differ at %d", i)
		}
	}
}

func TestParallelDeterministicOrder(t *testing.T) {
	// Two parallel runs must report violations in the same order even
	// though workers race for subtrees.
	run := func() []string {
		res := mustExplorer(t, Options{Bound: 20, ForwardHazards: true, Workers: 8}).Explore(v11Gadget())
		out := make([]string, len(res.Violations))
		for i, v := range res.Violations {
			out[i] = violationKey(v) + "|" + v.Schedule.String()
		}
		return out
	}
	first := run()
	if len(first) == 0 {
		t.Fatal("v1.1 gadget must produce violations")
	}
	for trial := 0; trial < 5; trial++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("trial %d: %d violations, want %d", trial, len(again), len(first))
		}
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("trial %d: violation %d reordered:\n got  %s\n want %s", trial, i, again[i], first[i])
			}
		}
	}
}

func TestParallelStopAtFirst(t *testing.T) {
	res := mustExplorer(t, Options{Bound: 20, StopAtFirst: true, Workers: 4}).Explore(v1Gadget(9))
	if len(res.Violations) != 1 {
		t.Fatalf("StopAtFirst must report exactly one violation, got %d", len(res.Violations))
	}
}

func TestParallelTruncation(t *testing.T) {
	res := mustExplorer(t, Options{Bound: 20, ForwardHazards: true, MaxStates: 5, Workers: 4}).Explore(v11Gadget())
	if !res.Truncated {
		t.Fatal("tiny budget must truncate")
	}
	if res.States > 5 {
		t.Fatalf("states %d exceed the budget 5", res.States)
	}
}

func TestParallelInterrupt(t *testing.T) {
	e := mustExplorer(t, Options{Bound: 20, Workers: 4, Interrupt: func() bool { return true }})
	res := e.Explore(v1Gadget(9))
	if !res.Interrupted {
		t.Fatal("interrupt must mark the result interrupted")
	}
	if res.States != 0 {
		t.Fatalf("interrupt before the first state must explore nothing, got %d states", res.States)
	}
}

func TestParallelOnViolationStops(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	e := mustExplorer(t, Options{
		Bound: 20, Workers: 4,
		OnViolation: func(Violation) bool {
			mu.Lock()
			calls++
			mu.Unlock()
			return false
		},
	})
	res := e.Explore(v1Gadget(9))
	if !res.Interrupted {
		t.Fatal("stopping callback must mark the result interrupted")
	}
	mu.Lock()
	defer mu.Unlock()
	if calls == 0 {
		t.Fatal("callback never fired")
	}
}

// TestExplorerSharedAcrossGoroutines exercises one Explorer from many
// goroutines concurrently — the reuse the type documents — so the race
// detector can certify there is no per-instance mutable state left.
func TestExplorerSharedAcrossGoroutines(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := mustExplorer(t, Options{Bound: 20, ForwardHazards: true, Workers: workers})
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res := e.Explore(v1Gadget(9))
				if res.SecretFree() {
					errs <- "shared explorer missed the v1 leak"
				}
			}()
		}
		wg.Wait()
		close(errs)
		for msg := range errs {
			t.Fatalf("workers=%d: %s", workers, msg)
		}
	}
}

// TestDedupPrunesReconvergedStates checks the fingerprint table's
// central claim: forwarding-fork arms that reconverge (store address
// resolved and load executed, in either order, without aliasing) are
// pruned, shrinking the explored state count without losing any
// violation signature.
func TestDedupPrunesReconvergedStates(t *testing.T) {
	full := mustExplorer(t, Options{Bound: 20, ForwardHazards: true}).Explore(v11Gadget())
	dedup := mustExplorer(t, Options{Bound: 20, ForwardHazards: true, DedupEntries: 1 << 16}).Explore(v11Gadget())
	if dedup.DedupHits == 0 {
		t.Fatal("forwarding forks must reconverge and hit the dedup table")
	}
	if dedup.States >= full.States {
		t.Fatalf("dedup must shrink the exploration: %d states with, %d without", dedup.States, full.States)
	}
	want := map[string]bool{}
	for _, v := range full.Violations {
		want[violationKey(v)] = true
	}
	got := map[string]bool{}
	for _, v := range dedup.Violations {
		got[violationKey(v)] = true
	}
	if len(got) != len(want) {
		t.Fatalf("violation signatures differ: %v vs %v", got, want)
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("dedup lost violation %s", k)
		}
	}
}

// TestDedupParallelAgreesOnSignatures checks that parallel exploration
// with dedup — where the pruning decisions race — still finds the same
// violation signatures as the serial dedup run.
func TestDedupParallelAgreesOnSignatures(t *testing.T) {
	serial := mustExplorer(t, Options{Bound: 20, ForwardHazards: true, DedupEntries: 1 << 16}).Explore(v11Gadget())
	par := mustExplorer(t, Options{Bound: 20, ForwardHazards: true, DedupEntries: 1 << 16, Workers: 4}).Explore(v11Gadget())
	ss, ps := sortedSignatures(serial, false), sortedSignatures(par, false)
	dedupStrings := func(in []string) []string {
		var out []string
		for i, s := range in {
			if i == 0 || s != in[i-1] {
				out = append(out, s)
			}
		}
		return out
	}
	ss, ps = dedupStrings(ss), dedupStrings(ps)
	if len(ss) != len(ps) {
		t.Fatalf("signature sets differ in size: %v vs %v", ss, ps)
	}
	for i := range ss {
		if ss[i] != ps[i] {
			t.Fatalf("signature sets differ: %v vs %v", ss, ps)
		}
	}
}

func TestNewExplorerRejectsBadParallelOptions(t *testing.T) {
	if _, err := NewExplorer(Options{Bound: 20, Workers: -1}); err == nil {
		t.Fatal("negative workers must be rejected")
	}
	if _, err := NewExplorer(Options{Bound: 20, DedupEntries: -1}); err == nil {
		t.Fatal("negative dedup entries must be rejected")
	}
}

// TestViolationPCPointsAtLeakingInstruction pins the PC attribution
// fix: the Figure 1 leak is the load at program point 3, not the fetch
// head (4) at detection time.
func TestViolationPCPointsAtLeakingInstruction(t *testing.T) {
	res, err := Explore(v1Gadget(9), 20, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.SecretFree() {
		t.Fatal("v1 gadget must leak")
	}
	for _, v := range res.Violations {
		if v.PC != 3 {
			t.Fatalf("violation PC = %d, want 3 (the leaking load)", v.PC)
		}
	}
}
