package isa

import (
	"sync"
	"testing"
	"testing/quick"

	"pitchfork/internal/mem"
)

func TestEvalArithmetic(t *testing.T) {
	cases := []struct {
		op   Opcode
		args []mem.Value
		want mem.Word
	}{
		{OpAdd, []mem.Value{mem.Pub(1), mem.Pub(2), mem.Pub(3)}, 6},
		{OpSub, []mem.Value{mem.Pub(5), mem.Pub(7)}, ^mem.Word(1)},
		{OpMul, []mem.Value{mem.Pub(3), mem.Pub(4)}, 12},
		{OpDiv, []mem.Value{mem.Pub(9), mem.Pub(2)}, 4},
		{OpDiv, []mem.Value{mem.Pub(9), mem.Pub(0)}, 0},
		{OpMod, []mem.Value{mem.Pub(9), mem.Pub(4)}, 1},
		{OpMod, []mem.Value{mem.Pub(9), mem.Pub(0)}, 0},
		{OpAnd, []mem.Value{mem.Pub(0b1100), mem.Pub(0b1010)}, 0b1000},
		{OpOr, []mem.Value{mem.Pub(0b1100), mem.Pub(0b1010)}, 0b1110},
		{OpXor, []mem.Value{mem.Pub(0b1100), mem.Pub(0b1010)}, 0b0110},
		{OpShl, []mem.Value{mem.Pub(1), mem.Pub(65)}, 2},
		{OpShr, []mem.Value{mem.Pub(8), mem.Pub(2)}, 2},
		{OpSar, []mem.Value{mem.Pub(^mem.Word(0)), mem.Pub(4)}, ^mem.Word(0)},
		{OpNot, []mem.Value{mem.Pub(0)}, ^mem.Word(0)},
		{OpNeg, []mem.Value{mem.Pub(1)}, ^mem.Word(0)},
		{OpMov, []mem.Value{mem.Pub(17)}, 17},
		{OpEq, []mem.Value{mem.Pub(4), mem.Pub(4)}, 1},
		{OpNe, []mem.Value{mem.Pub(4), mem.Pub(4)}, 0},
		{OpLt, []mem.Value{mem.Pub(1), mem.Pub(2)}, 1},
		{OpLe, []mem.Value{mem.Pub(2), mem.Pub(2)}, 1},
		{OpGt, []mem.Value{mem.Pub(3), mem.Pub(2)}, 1},
		{OpGe, []mem.Value{mem.Pub(1), mem.Pub(2)}, 0},
		{OpSlt, []mem.Value{mem.Pub(^mem.Word(0)), mem.Pub(0)}, 1}, // -1 < 0 signed
		{OpSle, []mem.Value{mem.Pub(0), mem.Pub(^mem.Word(0))}, 0},
		{OpSgt, []mem.Value{mem.Pub(0), mem.Pub(^mem.Word(0))}, 1},
		{OpSge, []mem.Value{mem.Pub(^mem.Word(0)), mem.Pub(0)}, 0},
		{OpSelect, []mem.Value{mem.Pub(1), mem.Pub(10), mem.Pub(20)}, 10},
		{OpSelect, []mem.Value{mem.Pub(0), mem.Pub(10), mem.Pub(20)}, 20},
		{OpSucc, []mem.Value{mem.Pub(100)}, 99},
		{OpPred, []mem.Value{mem.Pub(100)}, 101},
	}
	for _, c := range cases {
		got, err := Eval(c.op, c.args)
		if err != nil {
			t.Errorf("%s: %v", c.op, err)
			continue
		}
		if got.W != c.want {
			t.Errorf("%s(%v) = %d, want %d", c.op, c.args, got.W, c.want)
		}
	}
}

func TestEvalLabelPropagation(t *testing.T) {
	got, err := Eval(OpAdd, []mem.Value{mem.Pub(1), mem.Sec(2)})
	if err != nil {
		t.Fatal(err)
	}
	if got.L != mem.Secret {
		t.Fatal("secret operand must taint the result")
	}
	// Select taints through the condition even when branches are public.
	got, err = Eval(OpSelect, []mem.Value{mem.Sec(1), mem.Pub(10), mem.Pub(20)})
	if err != nil {
		t.Fatal(err)
	}
	if got.L != mem.Secret {
		t.Fatal("secret condition must taint select result")
	}
}

func TestEvalArityErrors(t *testing.T) {
	if _, err := Eval(OpSub, []mem.Value{mem.Pub(1)}); err == nil {
		t.Fatal("sub/1 must fail")
	}
	if _, err := Eval(OpAdd, nil); err == nil {
		t.Fatal("add/0 must fail")
	}
	if _, err := Eval(OpSelect, []mem.Value{mem.Pub(1), mem.Pub(2)}); err == nil {
		t.Fatal("select/2 must fail")
	}
}

// Property: Eval's label is always the join of the operand labels.
func TestEvalLabelIsJoin(t *testing.T) {
	f := func(a, b uint64, la, lb bool) bool {
		l1, l2 := mem.Public, mem.Public
		if la {
			l1 = mem.Secret
		}
		if lb {
			l2 = mem.Secret
		}
		v, err := Eval(OpXor, []mem.Value{mem.V(a, l1), mem.V(b, l2)})
		if err != nil {
			return false
		}
		return v.L == l1.Join(l2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEvalAddr(t *testing.T) {
	sum, err := EvalAddr([]mem.Value{mem.Pub(0x40), mem.Pub(2)})
	if err != nil || sum.W != 0x42 {
		t.Fatalf("EvalAddr = %v, %v", sum, err)
	}
	if _, err := EvalAddr(nil); err == nil {
		t.Fatal("empty address list must fail")
	}
	sec, _ := EvalAddr([]mem.Value{mem.Pub(0x40), mem.Sec(1)})
	if sec.L != mem.Secret {
		t.Fatal("address label must join operand labels")
	}
}

func TestInstrStrings(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Br(OpGt, []Operand{ImmW(4), R(0)}, 2, 4), "br(gt, [4, ra], 2, 4)"},
		{Load(1, []Operand{ImmW(0x40), R(0)}, 3), "(rb = load([64, ra], 3))"},
		{Store(R(1), []Operand{ImmW(0x40)}, 5), "store(rb, [64], 5)"},
		{Op(2, OpAdd, []Operand{ImmW(1), R(1)}, 6), "(rc = op(add, [1, rb], 6))"},
		{Jmpi([]Operand{ImmW(12), R(1)}), "jmpi([12, rb])"},
		{Call(3, 2), "call(3, 2)"},
		{Ret(), "ret"},
		{Fence(17), "fence 17"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestRegNames(t *testing.T) {
	if RegName(0) != "ra" || RegName(25) != "rz" {
		t.Fatal("letter registers")
	}
	if RegName(mem.RSP) != "rsp" || RegName(mem.RTMP) != "rtmp" {
		t.Fatal("conventional registers")
	}
	if RegName(40) != "r40" {
		t.Fatal("numbered registers")
	}
}

func TestBuilderSequencing(t *testing.T) {
	b := NewBuilder(1)
	p := b.Op(0, OpMov, ImmW(5)).
		Load(1, ImmW(0x40), R(0)).
		Store(R(1), ImmW(0x50)).
		Fence().
		MustBuild()
	if p.Len() != 4 {
		t.Fatalf("Len = %d", p.Len())
	}
	in, ok := p.At(1)
	if !ok || in.Kind != KOp || in.Next != 2 {
		t.Fatalf("instr 1 = %v", in)
	}
	in, _ = p.At(2)
	if in.Kind != KLoad || in.Next != 3 {
		t.Fatalf("instr 2 = %v", in)
	}
	if _, ok := p.At(5); ok {
		t.Fatal("point 5 must be a halt point")
	}
}

func TestBuilderBranchTargets(t *testing.T) {
	b := NewBuilder(1)
	b.Br(OpGt, []Operand{ImmW(4), R(0)}, 2, 4)
	b.Load(1, ImmW(0x40), R(0))
	b.Load(2, ImmW(0x44), R(1))
	p := b.MustBuild()
	in, _ := p.At(1)
	if in.True != 2 || in.False != 4 {
		t.Fatalf("branch targets = %d, %d", in.True, in.False)
	}
}

func TestValidateRejectsBadEntry(t *testing.T) {
	p := NewProgram(1)
	p.Add(2, Ret())
	if err := p.Validate(); err == nil {
		t.Fatal("missing entry must be rejected")
	}
}

func TestValidateRejectsArity(t *testing.T) {
	p := NewProgram(1)
	p.Add(1, Op(0, OpSub, []Operand{ImmW(1)}, 2))
	if err := p.Validate(); err == nil {
		t.Fatal("sub/1 must be rejected")
	}
	p = NewProgram(1)
	p.Add(1, Load(0, nil, 2))
	if err := p.Validate(); err == nil {
		t.Fatal("load with no address operands must be rejected")
	}
	p = NewProgram(1)
	p.Add(1, Instr{Kind: Kind(99)})
	if err := p.Validate(); err == nil {
		t.Fatal("invalid kind must be rejected")
	}
}

func TestProgramDataAndSymbols(t *testing.T) {
	p := NewProgram(1)
	p.SetRegion(0x40, []mem.Value{mem.Pub(1), mem.Sec(2)})
	p.Define("key", 0x41)
	m := p.InitialMemory()
	if v := m.Read(0x41); v != mem.Sec(2) {
		t.Fatalf("data image = %v", v)
	}
	if a, ok := p.Lookup("key"); !ok || a != 0x41 {
		t.Fatal("symbol lookup")
	}
	if _, ok := p.Lookup("nope"); ok {
		t.Fatal("bogus symbol resolved")
	}
}

func TestProgramCloneIsDeep(t *testing.T) {
	p := NewProgram(1)
	p.Add(1, Op(0, OpAdd, []Operand{ImmW(1), R(2)}, 2))
	p.SetData(9, mem.Pub(3))
	p.Define("x", 9)
	c := p.Clone()
	c.Instrs[1].Args[0] = ImmW(99)
	c.SetData(9, mem.Pub(4))
	c.Define("x", 10)
	if p.Instrs[1].Args[0] != ImmW(1) {
		t.Fatal("clone aliases instruction operands")
	}
	if p.data[9] != mem.Pub(3) {
		t.Fatal("clone aliases data")
	}
	if p.Symbols["x"] != 9 {
		t.Fatal("clone aliases symbols")
	}
}

// TestInitialMemorySharesOneImage: machines built from one program
// clone one frozen, pre-hashed image. Concurrent builders (run this
// under -race) share it without writing to it, each clone is private
// to its machine, and every clone hashes like a memory imaged from
// scratch.
func TestInitialMemorySharesOneImage(t *testing.T) {
	p := NewProgram(1)
	for a := Addr(0x40); a < 0x80; a++ {
		p.SetData(a, mem.Value{W: mem.Word(a), L: mem.Label(a % 2)})
	}
	scratch := mem.NewMemory()
	for a, v := range p.Data() {
		scratch.Write(a, v)
	}
	want := scratch.HashSum()
	first := p.InitialMemory()
	img := p.image.Load()
	if img == nil {
		t.Fatal("InitialMemory kept no image")
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := p.InitialMemory()
			if m.HashSum() != want {
				t.Errorf("goroutine %d: clone hashes differently from a fresh image", g)
			}
			m.Write(0x40, mem.Pub(uint64(1000+g)))
			if m.Read(0x40) != mem.Pub(uint64(1000+g)) {
				t.Errorf("goroutine %d: clone lost its own write", g)
			}
		}()
	}
	wg.Wait()
	if p.image.Load() != img {
		t.Fatal("concurrent machine builds replaced the image")
	}
	if first.Read(0x40) != mem.Pub(0x40) || first.HashSum() != want {
		t.Fatal("a clone's write reached another clone")
	}
}

// TestInitialMemoryNeverStale: a data write after a machine was built
// drops the image, so the next machine sees the new data, the earlier
// one keeps the old, and a clone or rewrite of the program, which
// shares the image while the data is equal, is not affected.
func TestInitialMemoryNeverStale(t *testing.T) {
	p := NewProgram(1)
	p.Add(1, Op(0, OpAdd, []Operand{ImmW(1), R(2)}, 2))
	p.SetData(9, mem.Pub(3))
	before := p.InitialMemory()
	c := p.Clone()
	rw, err := (&Plan{}).Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	p.SetData(9, mem.Pub(4))
	if v := p.InitialMemory().Read(9); v != mem.Pub(4) {
		t.Fatalf("image served stale data after SetData: µ(9)=%v", v)
	}
	p.SetRegion(10, []mem.Value{mem.Sec(5)})
	if v := p.InitialMemory().Read(10); v != mem.Sec(5) {
		t.Fatalf("image served stale data after SetRegion: µ(10)=%v", v)
	}
	if before.Read(9) != mem.Pub(3) {
		t.Fatal("a data write reached a machine built before it")
	}
	for name, q := range map[string]*Program{"clone": c, "rewrite": rw.Prog} {
		if m := q.InitialMemory(); m.Read(9) != mem.Pub(3) || m.Contains(10) {
			t.Fatalf("%s: the original's data write reached its image", name)
		}
	}
}

func TestPointsSorted(t *testing.T) {
	p := NewProgram(5)
	p.Add(7, Ret())
	p.Add(5, Ret())
	p.Add(6, Ret())
	pts := p.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i-1] >= pts[i] {
			t.Fatalf("Points not sorted: %v", pts)
		}
	}
}

func TestEmptyProgramValidates(t *testing.T) {
	if err := NewProgram(0).Validate(); err != nil {
		t.Fatal(err)
	}
}
