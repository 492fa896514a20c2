package core

import (
	"errors"
	"testing"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

// fig11Program reconstructs Figure 11 (Spectre v2): an indirect jump
// whose predictor the adversary has mistrained to land past a fence,
// on a gadget that leaks the loaded secret.
func fig11Program() *isa.Program {
	b := isa.NewBuilder(1)
	b.Load(rc, isa.ImmW(0x48), isa.R(ra)) // 1: (rc = load([48, ra], 2))
	b.Fence()                             // 2: fence 3
	b.Jmpi(isa.ImmW(12), isa.R(rb))       // 3: jmpi([12, rb])
	b.Skip(12)
	b.Place(16, isa.Fence(17))
	b.Place(17, isa.Load(rd, []isa.Operand{isa.ImmW(0x44), isa.R(rc)}, 18))
	b.Region(0x44, mem.Pub(5), mem.Pub(6), mem.Pub(7), mem.Pub(8))
	b.Region(0x48, mem.Sec(0xB0), mem.Sec(0xB1), mem.Sec(0xB2), mem.Sec(0xB3))
	return b.MustBuild()
}

// TestFigure11SpectreV2 replays Figure 11. The fence at 16 guards the
// gadget's architectural entry, but the mistrained predictor jumps
// straight to 17, so the fence never enters the pipeline.
func TestFigure11SpectreV2(t *testing.T) {
	m := New(fig11Program())
	m.Regs.Write(ra, mem.Pub(1))
	m.Regs.Write(rb, mem.Pub(8))

	mustStep(t, m, Fetch()) // 1: load
	mustStep(t, m, Fetch()) // 2: fence

	obs := mustStep(t, m, Execute(1))
	wantTrace(t, obs, ReadObs(0x49, mem.Public))
	wantBufEntry(t, m, 1, "(rc = 177sec{⊥, 0x49})")

	// The adversary steers the jmpi prediction to 17 — one past the
	// protective fence at 16.
	mustStep(t, m, FetchTarget(17))
	wantBufEntry(t, m, 3, "jmpi([12, rb], 17)")
	mustStep(t, m, Fetch()) // 4: (rd = load([44, rc]))

	mustStep(t, m, Retire()) // 1
	mustStep(t, m, Retire()) // 2 (fence)

	// The gadget leaks the secret through the load address.
	obs = mustStep(t, m, Execute(4))
	wantTrace(t, obs, ReadObs(0x44+0xB1, mem.Secret))

	// Resolving the jmpi reveals the mistraining: actual target is
	// 12+8 = 20, not 17.
	obs = mustStep(t, m, Execute(3))
	wantTrace(t, obs, RollbackObs(), JumpObs(20, mem.Public))
	if m.PC != 20 {
		t.Fatalf("PC = %d, want 20", m.PC)
	}
	wantNoBufEntry(t, m, 4)
}

// TestJmpiCorrectPrediction covers jmpi-execute-correct.
func TestJmpiCorrectPrediction(t *testing.T) {
	m := New(fig11Program())
	m.Regs.Write(ra, mem.Pub(1))
	m.Regs.Write(rb, mem.Pub(8))
	mustStep(t, m, Fetch())
	mustStep(t, m, Fetch())
	mustStep(t, m, FetchTarget(20)) // correct: 12+8
	mustStep(t, m, Execute(1))
	mustStep(t, m, Retire()) // load
	mustStep(t, m, Retire()) // fence — must retire before the jmpi may execute
	obs := mustStep(t, m, Execute(3))
	wantTrace(t, obs, JumpObs(20, mem.Public))
	wantBufEntry(t, m, 3, "jump 20")
	if m.PC != 20 {
		t.Fatalf("PC = %d, want 20", m.PC)
	}
}

// fig12Program reconstructs Figure 12 (ret2spec): one call paired with
// two rets, underflowing the RSB.
//
//	1: call(3, 2)   2: ret   3: ret
func fig12Program() *isa.Program {
	p := isa.NewProgram(1)
	p.Add(1, isa.Call(3, 2))
	p.Add(2, isa.Ret())
	p.Add(3, isa.Ret())
	// A call stack for the expansions to store into.
	p.SetRegion(0x78, []mem.Value{mem.Pub(0), mem.Pub(0), mem.Pub(0), mem.Pub(0), mem.Pub(0)})
	return p
}

// TestFigure12Ret2spec replays Figure 12: after the matched call/ret
// pair the RSB is empty, and the second ret's speculative target is
// attacker-chosen.
func TestFigure12Ret2spec(t *testing.T) {
	m := New(fig12Program())
	m.Regs.Write(mem.RSP, mem.Pub(0x7C))

	// fetch call(3, 2): expansion at 1..3, push 2, PC → 3.
	mustStep(t, m, Fetch())
	wantBufEntry(t, m, 1, "call")
	wantBufEntry(t, m, 2, "(rsp = op(succ, [rsp]))")
	wantBufEntry(t, m, 3, "store(2pub, [rsp])")
	if top, ok := m.RSB.Top(); !ok || top != 2 {
		t.Fatalf("RSB top = %d, %t; want 2", top, ok)
	}
	if m.PC != 3 {
		t.Fatalf("PC = %d, want callee 3", m.PC)
	}

	// fetch ret at 3: predicted to top(σ) = 2; expansion at 4..7.
	mustStep(t, m, Fetch())
	wantBufEntry(t, m, 4, "ret")
	wantBufEntry(t, m, 5, "(rtmp = load([rsp]))")
	wantBufEntry(t, m, 6, "(rsp = op(pred, [rsp]))")
	wantBufEntry(t, m, 7, "jmpi([rtmp], 2)")
	if m.PC != 2 {
		t.Fatalf("PC = %d, want predicted return 2", m.PC)
	}

	// The RSB is now empty: push then pop.
	if _, ok := m.RSB.Top(); ok {
		t.Fatal("RSB must be empty after matched call/ret")
	}

	// fetch ret at 2 with empty RSB: a plain fetch stalls…
	if _, err := m.Step(Fetch()); !errors.Is(err, ErrStall) {
		t.Fatalf("plain fetch of ret on empty RSB must stall, got %v", err)
	}
	// …and the attacker supplies an arbitrary speculative target.
	mustStep(t, m, FetchTarget(0x99))
	wantBufEntry(t, m, 8, "ret")
	wantBufEntry(t, m, 11, "jmpi([rtmp], 153)")
	if m.PC != 0x99 {
		t.Fatalf("PC = %d, want attacker-chosen 0x99", m.PC)
	}
}

// TestRSBRefusePolicy models AMD parts: the machine refuses to fetch a
// ret when the RSB is empty.
func TestRSBRefusePolicy(t *testing.T) {
	p := isa.NewProgram(1)
	p.Add(1, isa.Ret())
	m := New(p)
	m.RSB = NewRSB(RSBRefuse)
	m.Regs.Write(mem.RSP, mem.Pub(0x7C))
	if _, err := m.Step(Fetch()); !errors.Is(err, ErrStall) {
		t.Fatalf("refuse policy must stall, got %v", err)
	}
	if _, err := m.Step(FetchTarget(5)); !errors.Is(err, ErrStall) {
		t.Fatalf("refuse policy must reject attacker targets too, got %v", err)
	}
}

// TestRSBCircularPolicy models "most Intel processors": top(σ) always
// produces a value, so an underflowing ret predicts from stale ring
// contents rather than stalling.
func TestRSBCircularPolicy(t *testing.T) {
	p := isa.NewProgram(1)
	p.Add(1, isa.Ret())
	m := New(p)
	m.RSB = NewRSB(RSBCircular)
	m.Regs.Write(mem.RSP, mem.Pub(0x7C))
	m.Mem.Write(0x7C, mem.Pub(9))
	mustStep(t, m, Fetch()) // no stall: ring yields its (zero) slot
	if m.PC != 0 {
		t.Fatalf("PC = %d, want stale ring value 0", m.PC)
	}
}

// TestRSBCircularWraparound pushes past the ring capacity and checks
// the oldest entries are overwritten.
func TestRSBCircularWraparound(t *testing.T) {
	s := NewRSB(RSBCircular)
	for i := 0; i < rsbCircularSize+2; i++ {
		s.Push(i, isa.Addr(100+i))
	}
	// Pop everything pushed: the last pops see overwritten slots.
	for i := 0; i < rsbCircularSize+2; i++ {
		if _, ok := s.Top(); !ok {
			t.Fatal("circular RSB must never report empty")
		}
		s.Pop(rsbCircularSize + 2 + i)
	}
	if _, ok := s.Top(); !ok {
		t.Fatal("circular RSB must never report empty, even underflowed")
	}
}

// fig13Program reconstructs Figure 13: the retpoline construction that
// replaces the indirect jump of Figure 11.
//
//	3: call(5, 4)
//	4: fence 4              (speculation trap: fence looping to itself)
//	5: (rd = op(add, [12, rb], 6))
//	6: store(rd, [rsp], 7)  (overwrite the return address)
//	7: ret
func fig13Program() *isa.Program {
	b := isa.NewBuilder(1)
	nops(b, 2) // points 1, 2 → drained buffer indices 1, 2
	b.Call(5)  // 3: call(5, 4)
	b.Place(4, isa.Fence(4))
	b.Skip(1)
	b.Op(rd, isa.OpAdd, isa.ImmW(12), isa.R(rb)) // 5
	b.Store(isa.R(rd), isa.R(mem.RSP))           // 6
	b.Ret()                                      // 7
	b.Region(0x78, mem.Pub(0), mem.Pub(0), mem.Pub(0), mem.Pub(0), mem.Pub(0))
	return b.MustBuild()
}

// TestFigure13Retpoline replays Figure 13: speculative execution is
// parked on the fence self-loop; when the ret's indirect jump finally
// resolves, control transfers to the computed target with no
// opportunity for attacker-controlled prediction.
func TestFigure13Retpoline(t *testing.T) {
	m := New(fig13Program())
	m.Regs.Write(rb, mem.Pub(8))
	m.Regs.Write(mem.RSP, mem.Pub(0x7C))
	drain(t, m, 2)

	mustStep(t, m, Fetch()) // call: indices 3..5, push 4, PC → 5
	wantBufEntry(t, m, 3, "call")
	wantBufEntry(t, m, 4, "(rsp = op(succ, [rsp]))")
	wantBufEntry(t, m, 5, "store(4pub, [rsp])")
	mustStep(t, m, Fetch()) // 6: rd = op(add, [12, rb])
	mustStep(t, m, Fetch()) // 7: store(rd, [rsp])
	mustStep(t, m, Fetch()) // ret: indices 8..11, predicted to top(σ)=4
	wantBufEntry(t, m, 8, "ret")
	wantBufEntry(t, m, 11, "jmpi([rtmp], 4)")
	if m.PC != 4 {
		t.Fatalf("PC = %d, want RSB-predicted 4", m.PC)
	}
	mustStep(t, m, Fetch()) // 12: the fence trap
	wantBufEntry(t, m, 12, "fence")
	// Speculation is stuck: the next fetch is the same fence again.
	if m.PC != 4 {
		t.Fatalf("PC = %d, fence must loop to itself", m.PC)
	}

	// Resolve the call expansion and the retpoline body.
	mustStep(t, m, Execute(4)) // rsp = 0x7B
	wantBufEntry(t, m, 4, "(rsp = 123pub)")
	mustStep(t, m, Execute(6)) // rd = 20
	wantBufEntry(t, m, 6, "(rd = 20pub)")
	mustStep(t, m, ExecuteValue(7))
	obs := mustStep(t, m, ExecuteAddr(7))
	wantTrace(t, obs, FwdObs(0x7B, mem.Public))
	wantBufEntry(t, m, 7, "store(20pub, 123pub)")

	// The ret's return-address load forwards the overwritten slot.
	obs = mustStep(t, m, Execute(9))
	wantTrace(t, obs, FwdObs(0x7B, mem.Public))
	wantBufEntry(t, m, 9, "(rtmp = 20pub{7, 0x7b})")
	mustStep(t, m, Execute(10)) // rsp = pred(0x7B) = 0x7C

	// The indirect jump resolves to 20 ≠ 4: rollback, then execution
	// proceeds at the true target. The attacker never chose a target.
	obs = mustStep(t, m, Execute(11))
	wantTrace(t, obs, RollbackObs(), JumpObs(20, mem.Public))
	wantNoBufEntry(t, m, 12)
	wantBufEntry(t, m, 11, "jump 20")
	if m.PC != 20 {
		t.Fatalf("PC = %d, want 20", m.PC)
	}

	// Everything retires cleanly; rsp is restored.
	mustStep(t, m, ExecuteAddr(5)) // call's return-address store
	mustStep(t, m, Retire())       // call expansion (3..5)
	mustStep(t, m, Retire())       // rd
	mustStep(t, m, Retire())       // store
	mustStep(t, m, Retire())       // ret expansion (8..11)
	if got := m.Regs.Read(mem.RSP); got != mem.Pub(0x7C) {
		t.Fatalf("rsp = %v, want restored 0x7C", got)
	}
	if got := m.Regs.Read(rd); got != mem.Pub(20) {
		t.Fatalf("rd = %v, want 20", got)
	}
}

// TestCallRetSequential runs a simple call/return pair under the
// canonical sequential schedule and checks the stack discipline.
func TestCallRetSequential(t *testing.T) {
	//	1: call(10, 2)
	//	2: (ra = op(mov, [7], 3))     — executed after returning
	//	10: (rb = op(mov, [42], 11))
	//	11: ret
	b := isa.NewBuilder(1)
	b.Call(10)
	b.Op(ra, isa.OpMov, isa.ImmW(7))
	b.Place(10, isa.Op(rb, isa.OpMov, []isa.Operand{isa.ImmW(42)}, 11))
	b.Place(11, isa.Ret())
	b.Region(0x78, mem.Pub(0), mem.Pub(0), mem.Pub(0), mem.Pub(0), mem.Pub(0))
	p := b.MustBuild()

	m := New(p)
	m.Regs.Write(mem.RSP, mem.Pub(0x7C))
	_, trace, err := RunSequential(m, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Halted() {
		t.Fatalf("machine not halted at PC %d", m.PC)
	}
	if got := m.Regs.Read(ra); got != mem.Pub(7) {
		t.Fatalf("ra = %v, want 7", got)
	}
	if got := m.Regs.Read(rb); got != mem.Pub(42) {
		t.Fatalf("rb = %v, want 42", got)
	}
	if got := m.Regs.Read(mem.RSP); got != mem.Pub(0x7C) {
		t.Fatalf("rsp = %v, want balanced 0x7C", got)
	}
	// The call wrote the return address to the stack.
	found := false
	for _, o := range trace {
		if o.Kind == OWrite && o.Addr == 0x7B {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a write to the stack slot 0x7B in %s", trace)
	}
}

// TestNestedCallsSequential exercises a two-deep call chain.
func TestNestedCallsSequential(t *testing.T) {
	//	1: call(10, 2)    2: halt
	//	10: call(20, 11)  11: ret
	//	20: (ra = op(mov, [5], 21))  21: ret
	p := isa.NewProgram(1)
	p.Add(1, isa.Call(10, 2))
	p.Add(10, isa.Call(20, 11))
	p.Add(11, isa.Ret())
	p.Add(20, isa.Op(ra, isa.OpMov, []isa.Operand{isa.ImmW(5)}, 21))
	p.Add(21, isa.Ret())
	p.SetRegion(0x70, make([]mem.Value, 16))

	m := New(p)
	m.Regs.Write(mem.RSP, mem.Pub(0x7F))
	_, _, err := RunSequential(m, 100)
	if err != nil {
		t.Fatal(err)
	}
	if m.PC != 2 || !m.Halted() {
		t.Fatalf("PC = %d (halted=%t), want halt at 2", m.PC, m.Halted())
	}
	if got := m.Regs.Read(ra); got != mem.Pub(5) {
		t.Fatalf("ra = %v, want 5", got)
	}
	if got := m.Regs.Read(mem.RSP); got != mem.Pub(0x7F) {
		t.Fatalf("rsp = %v, want balanced 0x7F", got)
	}
}
