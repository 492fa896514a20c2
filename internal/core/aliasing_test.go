package core

import (
	"errors"
	"testing"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

// aliasProgram: a store whose value matches memory, a store whose
// value does not, and a load to forward into.
//
//	1: store(7, [0x50])      (same value as µ(0x50))
//	2: (ra = load([0x50]))
//	3: (rb = load([0x51]))
func aliasProgram(storeVal mem.Word) *isa.Program {
	b := isa.NewBuilder(1)
	b.Store(isa.ImmW(storeVal), isa.ImmW(0x50))
	b.Load(ra, isa.ImmW(0x50))
	b.Load(rb, isa.ImmW(0x51))
	b.Data(0x50, mem.Pub(7))
	b.Data(0x51, mem.Pub(9))
	return b.MustBuild()
}

// TestPredictedLoadMemMatch exercises load-execute-addr-mem-match: the
// originating store retires before the partially resolved load
// resolves; the forwarded value agrees with memory, so the load
// completes as if read from memory (⊥ dependency, read observation).
func TestPredictedLoadMemMatch(t *testing.T) {
	m := New(aliasProgram(7))
	mustStep(t, m, Fetch()) // 1: store (value pre-resolved)
	mustStep(t, m, Fetch()) // 2: load
	// Predict forwarding from the store, then retire the store.
	mustStep(t, m, ExecuteFwd(2, 1))
	obs := mustStep(t, m, ExecuteAddr(1))
	wantTrace(t, obs, FwdObs(0x50, mem.Public))
	obs = mustStep(t, m, Retire())
	wantTrace(t, obs, WriteObs(0x50, mem.Public))
	if m.Buf.Contains(1) {
		t.Fatal("store must have retired")
	}
	// Resolve the load: store gone, memory agrees (7 == 7).
	obs = mustStep(t, m, Execute(2))
	wantTrace(t, obs, ReadObs(0x50, mem.Public))
	wantBufEntry(t, m, 2, "(ra = 7pub{⊥, 0x50})")
}

// TestPredictedLoadMemHazard exercises load-execute-addr-mem-hazard:
// the retired store wrote a different value than the one speculatively
// forwarded (the forward came from an older draft of the program
// state), so the load rolls back to its own program point.
func TestPredictedLoadMemHazard(t *testing.T) {
	m := New(aliasProgram(8)) // store writes 8 over the 7 in memory
	mustStep(t, m, Fetch())
	mustStep(t, m, Fetch())
	mustStep(t, m, ExecuteFwd(2, 1))
	mustStep(t, m, ExecuteAddr(1))
	mustStep(t, m, Retire()) // µ(0x50) = 8, store leaves the buffer
	// Make the memory check fail: a younger store to 0x50 cannot
	// retire past the load, so model the divergence directly — the
	// configuration where µ no longer matches the forwarded value is
	// what the rule's precondition (v′ℓ′ ≠ vℓ) quantifies over.
	m.Mem.Write(0x50, mem.Pub(99))
	obs := mustStep(t, m, Execute(2))
	wantTrace(t, obs, RollbackObs(), ReadObs(0x50, mem.Public))
	if m.PC != 2 {
		t.Fatalf("PC = %d, want the load's program point 2", m.PC)
	}
	wantNoBufEntry(t, m, 2)
}

// TestPredictedLoadBlockedByPriorStore: with the originating store
// retired but a *different* prior store resolved to the same address
// still in the buffer, neither §3.5 memory rule applies — the
// directive stalls until that store is handled.
func TestPredictedLoadBlockedByPriorStore(t *testing.T) {
	//	1: store(7, [0x50])   — originating store, will retire
	//	2: store(5, [0x50])   — intervening store, stays buffered
	//	3: (ra = load([0x50]))
	b := isa.NewBuilder(1)
	b.Store(isa.ImmW(7), isa.ImmW(0x50))
	b.Store(isa.ImmW(5), isa.ImmW(0x50))
	b.Load(ra, isa.ImmW(0x50))
	b.Data(0x50, mem.Pub(7))
	m := New(b.MustBuild())
	mustStep(t, m, Fetch())
	mustStep(t, m, Fetch())
	mustStep(t, m, Fetch())
	mustStep(t, m, ExecuteFwd(3, 1))
	mustStep(t, m, ExecuteAddr(1))
	mustStep(t, m, Retire()) // originating store retired
	mustStep(t, m, ExecuteAddr(2))
	if _, err := m.Step(Execute(3)); !errors.Is(err, ErrStall) {
		t.Fatalf("want stall on intervening resolved store, got %v", err)
	}
}

// TestPredictedLoadIntervenigStoreHazard: originating store still
// buffered, but a *newer* store between it and the load resolves to
// the load's address — load-execute-addr-hazard fires.
func TestPredictedLoadInterveningStoreHazard(t *testing.T) {
	b := isa.NewBuilder(1)
	b.Store(isa.ImmW(7), isa.ImmW(0x50))
	b.Store(isa.ImmW(5), isa.ImmW(0x50))
	b.Load(ra, isa.ImmW(0x50))
	b.Data(0x50, mem.Pub(7))
	m := New(b.MustBuild())
	mustStep(t, m, Fetch())
	mustStep(t, m, Fetch())
	mustStep(t, m, Fetch())
	mustStep(t, m, ExecuteFwd(3, 1))  // predict from the OLDER store
	mustStep(t, m, ExecuteAddr(2))    // the newer store resolves to 0x50
	obs := mustStep(t, m, Execute(3)) // misprediction: hazard
	wantTrace(t, obs, RollbackObs(), FwdObs(0x50, mem.Public))
	if m.PC != 3 {
		t.Fatalf("PC = %d, want restart at 3", m.PC)
	}
}

// TestPredictedLoadCorrectForward: the §3.5 happy path where the
// originating store is still buffered and its address matches.
func TestPredictedLoadCorrectForward(t *testing.T) {
	m := New(aliasProgram(8))
	mustStep(t, m, Fetch())
	mustStep(t, m, Fetch())
	mustStep(t, m, ExecuteFwd(2, 1))
	// The store's address resolves to the matching address.
	mustStep(t, m, ExecuteAddr(1))
	obs := mustStep(t, m, Execute(2))
	wantTrace(t, obs, FwdObs(0x50, mem.Public))
	wantBufEntry(t, m, 2, "(ra = 8pub{1, 0x50})")
}

// TestPredictedLoadUnresolvedStoreAddrOk: per load-execute-addr-ok,
// the load may fully resolve even while the originating store's
// address is still unknown; the store's own gray-condition check
// validates it later.
func TestPredictedLoadUnresolvedStoreAddrOk(t *testing.T) {
	b := isa.NewBuilder(1)
	b.Store(isa.ImmW(8), isa.R(rc)) // address unresolved until rc known
	b.Load(ra, isa.ImmW(0x50))
	b.Data(0x50, mem.Pub(7))
	m := New(b.MustBuild())
	m.Regs.Write(rc, mem.Pub(0x50))
	mustStep(t, m, Fetch())
	mustStep(t, m, Fetch())
	mustStep(t, m, ExecuteFwd(2, 1))
	obs := mustStep(t, m, Execute(2)) // resolves against the prediction
	wantTrace(t, obs, FwdObs(0x50, mem.Public))
	wantBufEntry(t, m, 2, "(ra = 8pub{1, 0x50})")
	// Now the store resolves to the same address: the gray condition
	// (jk = i ⇒ ak = a) holds, no hazard.
	obs = mustStep(t, m, ExecuteAddr(1))
	wantTrace(t, obs, FwdObs(0x50, mem.Public))
	// Counter-case: had the store resolved elsewhere, the store-side
	// check would roll the load back — covered by Figure 2's replay.
}

// TestExecuteFwdValidation: the directive's side conditions.
func TestExecuteFwdValidation(t *testing.T) {
	m := New(aliasProgram(8))
	mustStep(t, m, Fetch())
	mustStep(t, m, Fetch())
	if _, err := m.Step(ExecuteFwd(2, 2)); !errors.Is(err, ErrStall) {
		t.Fatal("forwarding from self must stall")
	}
	if _, err := m.Step(ExecuteFwd(2, 5)); !errors.Is(err, ErrStall) {
		t.Fatal("forwarding from a future index must stall")
	}
	if _, err := m.Step(ExecuteFwd(1, 1)); !errors.Is(err, ErrStall) {
		t.Fatal("execute:fwd on a store must stall")
	}
	mustStep(t, m, ExecuteFwd(2, 1))
	if _, err := m.Step(ExecuteFwd(2, 1)); !errors.Is(err, ErrStall) {
		t.Fatal("double prediction must stall")
	}
}

// TestRSBCircularUnderflowRet: under the circular policy a bare ret
// fetches without attacker input, predicting from stale ring contents.
func TestRSBCircularUnderflowRet(t *testing.T) {
	p := isa.NewProgram(1)
	p.Add(1, isa.Call(10, 2))
	p.Add(10, isa.Ret())
	p.Add(2, isa.Ret()) // unmatched: underflows the RSB
	p.SetRegion(0x78, make([]mem.Value, 8))
	m := New(p)
	m.RSB = NewRSB(RSBCircular)
	m.Regs.Write(mem.RSP, mem.Pub(0x7C))
	mustStep(t, m, Fetch()) // call
	mustStep(t, m, Fetch()) // ret at 10 → predicted 2 (matched)
	if m.PC != 2 {
		t.Fatalf("PC = %d, want 2", m.PC)
	}
	// The unmatched ret must not stall: the ring supplies a stale
	// value (here slot 0 = 0), so a plain fetch succeeds.
	mustStep(t, m, Fetch())
	if m.PC != 0 {
		t.Fatalf("PC = %d, want ring value 0", m.PC)
	}
}
