package core

import (
	"errors"
	"strings"
	"testing"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

func TestBufferContiguity(t *testing.T) {
	b := NewBuffer[Transient]()
	if b.Min() != 1 || b.Max() != 0 {
		t.Fatalf("initial Min/Max = %d/%d, want 1/0", b.Min(), b.Max())
	}
	i1 := b.AppendT(Transient{Kind: TFence})
	i2 := b.AppendT(Transient{Kind: TFence})
	if i1 != 1 || i2 != 2 {
		t.Fatalf("append indices = %d, %d", i1, i2)
	}
	b.PopMinN(1)
	if b.Min() != 2 || b.Max() != 2 {
		t.Fatalf("Min/Max after pop = %d/%d", b.Min(), b.Max())
	}
	i3 := b.AppendT(Transient{Kind: TFence})
	if i3 != 3 {
		t.Fatalf("append after pop = %d, want 3", i3)
	}
	b.TruncateFrom(3)
	if b.Max() != 2 {
		t.Fatalf("Max after truncate = %d", b.Max())
	}
	if i4 := b.AppendT(Transient{Kind: TFence}); i4 != 3 {
		t.Fatalf("reappend = %d, want 3 (contiguous domain)", i4)
	}
	// Popping everything keeps the base monotonic.
	b.PopMinN(2)
	if !b.Empty() || b.Max() != 3 {
		t.Fatalf("after drain: empty=%t Max=%d", b.Empty(), b.Max())
	}
	if i5 := b.AppendT(Transient{Kind: TFence}); i5 != 4 {
		t.Fatalf("append after drain = %d, want 4", i5)
	}
}

func TestBufferSetPanicsOutsideDomain(t *testing.T) {
	b := NewBuffer[Transient]()
	defer func() {
		if recover() == nil {
			t.Fatal("SetT outside domain must panic")
		}
	}()
	b.SetT(1, Transient{Kind: TFence})
}

func TestBufferPopMinNPanicsBeyond(t *testing.T) {
	b := NewBuffer[Transient]()
	b.AppendT(Transient{Kind: TFence})
	defer func() {
		if recover() == nil {
			t.Fatal("PopMinN beyond length must panic")
		}
	}()
	b.PopMinN(2)
}

func TestBufferString(t *testing.T) {
	b := NewBuffer[Transient]()
	if b.String() != "∅" {
		t.Fatalf("empty buffer = %q", b.String())
	}
	b.AppendT(Transient{Kind: TFence})
	if !strings.Contains(b.String(), "1 ↦ fence") {
		t.Fatalf("buffer string = %q", b.String())
	}
}

func TestRegisterResolveLatestWins(t *testing.T) {
	m := New(isa.NewProgram(1))
	m.Regs.Write(ra, mem.Pub(1))
	m.Buf.AppendT(Transient{Kind: TValue, Dst: ra, Val: mem.Pub(2)})                              // 1
	m.Buf.AppendT(Transient{Kind: TValue, Dst: ra, Val: mem.Pub(3)})                              // 2
	m.Buf.AppendT(Transient{Kind: TOp, Dst: ra, Op: isa.OpMov, Args: []isa.Operand{isa.ImmW(4)}}) // 3

	// Below the first assignment: the register file's value.
	if v, ok := m.ResolveReg(1, ra); !ok || v != mem.Pub(1) {
		t.Fatalf("(buf +1 ρ)(ra) = %v, %t", v, ok)
	}
	// Between the two resolved assignments: the earlier one.
	if v, ok := m.ResolveReg(2, ra); !ok || v != mem.Pub(2) {
		t.Fatalf("(buf +2 ρ)(ra) = %v, %t", v, ok)
	}
	if v, ok := m.ResolveReg(3, ra); !ok || v != mem.Pub(3) {
		t.Fatalf("(buf +3 ρ)(ra) = %v, %t", v, ok)
	}
	// Above the unresolved op: ⊥.
	if _, ok := m.ResolveReg(4, ra); ok {
		t.Fatal("latest assignment unresolved ⇒ ⊥")
	}
	// Unrelated register: falls through to ρ.
	if v, ok := m.ResolveReg(4, rb); !ok || v != mem.Pub(0) {
		t.Fatalf("(buf +4 ρ)(rb) = %v, %t", v, ok)
	}
}

func TestRegisterResolveThroughPredictedLoad(t *testing.T) {
	m := New(isa.NewProgram(1))
	m.Buf.AppendT(Transient{Kind: TLoad, Dst: ra, Args: []isa.Operand{isa.ImmW(0x10)}}) // unresolved: ⊥
	if _, ok := m.ResolveReg(2, ra); ok {
		t.Fatal("unresolved load ⇒ ⊥")
	}
	ld, _ := m.Buf.Edit(1)
	ld.PredFwd = true
	ld.PredVal = mem.Sec(9)
	ld.PredFrom = 0
	if v, ok := m.ResolveReg(2, ra); !ok || v != mem.Sec(9) {
		t.Fatalf("partially resolved load must supply its value, got %v, %t", v, ok)
	}
}

func TestResolveOperandImmediate(t *testing.T) {
	m := New(isa.NewProgram(1))
	v, ok := m.ResolveOperand(1, isa.Imm(mem.Sec(5)))
	if !ok || v != mem.Sec(5) {
		t.Fatalf("immediate resolve = %v, %t", v, ok)
	}
}

func TestStallErrorsAreStalls(t *testing.T) {
	m := New(fig1Program())
	m.Regs.Write(ra, mem.Pub(9))

	cases := []Directive{
		Fetch(),          // br needs a guess
		FetchTarget(2),   // br is not a jmpi
		Execute(5),       // not in buffer
		ExecuteValue(1),  // no store there (empty buffer)
		ExecuteAddr(1),   // ditto
		ExecuteFwd(1, 0), // ditto
		Retire(),         // empty buffer
	}
	for _, d := range cases {
		_, err := m.Step(d)
		if !errors.Is(err, ErrStall) {
			t.Errorf("%q: want stall, got %v", d, err)
		}
	}
	if m.Buf.Len() != 0 || m.PC != 1 {
		t.Fatal("failed directives must not change the configuration")
	}
}

func TestExecuteTwiceStalls(t *testing.T) {
	m := New(fig1Program())
	m.Regs.Write(ra, mem.Pub(1))
	mustStep(t, m, FetchGuess(true))
	mustStep(t, m, Fetch())
	mustStep(t, m, Execute(2))
	if _, err := m.Step(Execute(2)); !errors.Is(err, ErrStall) {
		t.Fatalf("re-executing a resolved value must stall, got %v", err)
	}
}

func TestLoadStallsOnUnresolvedMatchingStore(t *testing.T) {
	// store with register data to 0x50, then load from 0x50: the load
	// can neither forward (no value) nor read memory (a resolved
	// matching store exists).
	b := isa.NewBuilder(1)
	b.Store(isa.R(ra), isa.ImmW(0x50))
	b.Load(rb, isa.ImmW(0x50))
	p := b.MustBuild()
	m := New(p)
	m.Regs.Write(ra, mem.Pub(7))
	mustStep(t, m, Fetch())
	mustStep(t, m, ExecuteAddr(1))
	mustStep(t, m, Fetch())
	if _, err := m.Step(Execute(2)); !errors.Is(err, ErrStall) {
		t.Fatalf("load must stall on value-unresolved matching store, got %v", err)
	}
	mustStep(t, m, ExecuteValue(1))
	obs := mustStep(t, m, Execute(2))
	wantTrace(t, obs, FwdObs(0x50, mem.Public))
}

func TestStoreValueThenAddrEitherOrder(t *testing.T) {
	build := func() *Machine {
		b := isa.NewBuilder(1)
		b.Store(isa.R(ra), isa.ImmW(0x50), isa.R(rb))
		m := New(b.MustBuild())
		m.Regs.Write(ra, mem.Sec(3))
		m.Regs.Write(rb, mem.Pub(2))
		mustStepNoT(m, Fetch())
		return m
	}
	m1 := build()
	if _, err := m1.Step(ExecuteValue(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Step(ExecuteAddr(1)); err != nil {
		t.Fatal(err)
	}
	m2 := build()
	if _, err := m2.Step(ExecuteAddr(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Step(ExecuteValue(1)); err != nil {
		t.Fatal(err)
	}
	t1, _ := m1.Buf.Get(1)
	t2, _ := m2.Buf.Get(1)
	if t1.String() != t2.String() {
		t.Fatalf("order-dependent store resolution: %s vs %s", t1, t2)
	}
	if !t1.Resolved() {
		t.Fatal("store should be fully resolved")
	}
}

func mustStepNoT(m *Machine, d Directive) {
	if _, err := m.Step(d); err != nil {
		panic(err)
	}
}

// TestOperatorArityFault: an operator given the wrong operand count
// (a program Validate would reject, assembled without it) fails inside
// the execute rule as a machine fault, not a stall.
func TestOperatorArityFault(t *testing.T) {
	p := isa.NewProgram(1)
	p.Add(1, isa.Op(ra, isa.OpSelect, []isa.Operand{isa.ImmW(1), isa.ImmW(2)}, 2))
	m := New(p)
	mustStep(t, m, Fetch())
	_, err := m.Step(Execute(1))
	if err == nil || errors.Is(err, ErrStall) {
		t.Fatalf("select/2 must be a fault, got %v", err)
	}
	var se *StepError
	if !errors.As(err, &se) || !se.Fault {
		t.Fatalf("want StepError fault, got %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New(fig1Program())
	m.Regs.Write(ra, mem.Pub(9))
	mustStep(t, m, FetchGuess(true))
	c := m.Clone()
	mustStep(t, c, Fetch())
	mustStep(t, c, Execute(2))
	if m.Buf.Len() != 1 {
		t.Fatal("clone mutated the original buffer")
	}
	if v := m.Regs.Read(rb); v != mem.Pub(0) {
		t.Fatal("clone mutated the original registers")
	}
}

func TestHaltedAndTerminal(t *testing.T) {
	m := New(fig1Program())
	m.Regs.Write(ra, mem.Pub(9))
	if m.Halted() {
		t.Fatal("fresh machine at entry is not halted")
	}
	if !m.Buf.Empty() {
		t.Fatal("fresh machine has an empty buffer")
	}
	_, _, err := RunSequential(m, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Halted() || m.PC != 4 {
		t.Fatalf("halted=%t PC=%d, want halt at 4", m.Halted(), m.PC)
	}
}

func TestRetireCountsN(t *testing.T) {
	m := New(fig1Program())
	m.Regs.Write(ra, mem.Pub(1)) // in bounds: branch true is correct
	sched, _, err := RunSequential(m, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := Schedule(sched).Retires(); got != m.Retired {
		t.Fatalf("schedule retires %d, machine retired %d", got, m.Retired)
	}
	if m.Retired != 3 {
		t.Fatalf("retired = %d, want 3 (br + 2 loads)", m.Retired)
	}
}

func TestDirectiveStrings(t *testing.T) {
	cases := map[string]Directive{
		"fetch":             Fetch(),
		"fetch: true":       FetchGuess(true),
		"fetch: false":      FetchGuess(false),
		"fetch: 17":         FetchTarget(17),
		"execute 2":         Execute(2),
		"execute 2 : value": ExecuteValue(2),
		"execute 2 : addr":  ExecuteAddr(2),
		"execute 7 : fwd 2": ExecuteFwd(7, 2),
		"retire":            Retire(),
	}
	for want, d := range cases {
		if got := d.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
	s := Schedule{Fetch(), Retire()}
	if s.String() != "fetch; retire" {
		t.Fatalf("schedule string = %q", s.String())
	}
}

func TestObservationStrings(t *testing.T) {
	cases := map[string]Observation{
		"read 73pub":  ReadObs(73, mem.Public),
		"fwd 69pub":   FwdObs(69, mem.Public),
		"write 66sec": WriteObs(66, mem.Secret),
		"jump 9pub":   JumpObs(9, mem.Public),
		"rollback":    RollbackObs(),
	}
	for want, o := range cases {
		if got := o.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
	tr := Trace{ReadObs(73, mem.Public), RollbackObs()}
	if tr.String() != "read 73pub; rollback" {
		t.Fatalf("trace string = %q", tr.String())
	}
	if tr.HasSecret() {
		t.Fatal("public trace misreported")
	}
	tr = append(tr, ReadObs(1, mem.Secret))
	if !tr.HasSecret() {
		t.Fatal("secret trace misreported")
	}
}

func TestRSBJournal(t *testing.T) {
	s := NewRSB(RSBAttackerChoice)
	if _, ok := s.Top(); ok {
		t.Fatal("empty RSB must report ⊥")
	}
	s.Push(1, 4)
	s.Push(2, 5)
	if top, _ := s.Top(); top != 5 {
		t.Fatalf("top = %d, want 5", top)
	}
	s.Pop(3)
	if top, _ := s.Top(); top != 4 {
		t.Fatalf("top = %d, want 4", top)
	}
	// Roll back the pop and the second push: top is 4's push again.
	s.Rollback(2)
	if top, _ := s.Top(); top != 4 {
		t.Fatalf("top after rollback = %d, want 4", top)
	}
	if s.Depth() != 1 {
		t.Fatalf("depth = %d, want 1", s.Depth())
	}
	if got := s.String(); got != "[1↦push 4]" {
		t.Fatalf("String = %q", got)
	}
	c := s.Clone()
	c.Pop(9)
	if top, ok := s.Top(); !ok || top != 4 {
		t.Fatal("clone aliases journal")
	}
}

// TestPaperExampleRSBEval mirrors the worked example in Appendix A:
// σ = ∅[1↦push 4][2↦push 5][3↦pop] has top(σ) = 4.
func TestPaperExampleRSBEval(t *testing.T) {
	s := NewRSB(RSBAttackerChoice)
	s.Push(1, 4)
	s.Push(2, 5)
	s.Pop(3)
	top, ok := s.Top()
	if !ok || top != 4 {
		t.Fatalf("top(σ) = %d, %t; want 4", top, ok)
	}
}

func TestTransientStrings(t *testing.T) {
	cases := []struct {
		tr   Transient
		want string
	}{
		{Transient{Kind: TOp, Dst: rc, Op: isa.OpAdd, Args: []isa.Operand{isa.ImmW(1), isa.R(rb)}}, "(rc = op(add, [1, rb]))"},
		{Transient{Kind: TValue, Dst: rb, Val: mem.Pub(4)}, "(rb = 4pub)"},
		{Transient{Kind: TValue, Dst: rb, Val: mem.Sec(7), FromLoad: true, Dep: NoDep, DataAddr: 0x43}, "(rb = 7sec{⊥, 0x43})"},
		{Transient{Kind: TJump, Target: 9}, "jump 9"},
		{Transient{Kind: TFence}, "fence"},
		{Transient{Kind: TCall}, "call"},
		{Transient{Kind: TRet}, "ret"},
	}
	for _, c := range cases {
		if got := c.tr.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestMachineEquality(t *testing.T) {
	m := New(fig1Program())
	m.Regs.Write(ra, mem.Pub(9))
	c := m.Clone()
	if !m.Equal(c) || !m.ApproxEqual(c) || !m.LowEquiv(c) {
		t.Fatal("clone must be equal")
	}
	c.Regs.Write(rb, mem.Sec(1))
	if m.Equal(c) {
		t.Fatal("register divergence must break Equal")
	}
	if !m.LowEquiv(c) == false {
		// rb secret in c but public-zero in m: labels differ ⇒ not low-equivalent.
		t.Fatal("label divergence must break LowEquiv")
	}
}

func TestRunRecorded(t *testing.T) {
	m := New(fig1Program())
	m.Regs.Write(ra, mem.Pub(9))
	recs, err := m.RunRecorded(Schedule{FetchGuess(true), Fetch(), Fetch(), Execute(2), Execute(3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("records = %d", len(recs))
	}
	if len(recs[3].Obs) != 1 || recs[3].Obs[0].Kind != ORead {
		t.Fatalf("record 3 = %+v", recs[3])
	}
}
