package isa

import (
	"reflect"
	"testing"

	"pitchfork/internal/mem"
)

// fencePlan builds the plan equivalent of the repair engine's historic
// applySites loop: one fence inserted before the occupant of each site.
func fencePlan(sites []Addr) Plan {
	var pl Plan
	for _, s := range sites {
		pl.Add(Patch{At: s, Insert: []Instr{Fence(s)}})
	}
	return pl
}

// InsertAt is the single-site insert the plan rewriter grew out of,
// kept as the oracle of TestFencePlanMatchesInsertAt. It inserts in at
// program point n, shifting every existing instruction at a point ≥ n
// one point up and remapping the static control-flow references of
// the shifted program: Next/True/False fall-through and branch
// targets, call entry and return points, the entry point, and symbol
// bindings that denote instruction points. References strictly greater
// than n are incremented; references equal to n keep referring to n,
// so control that targeted the shifted instruction flows through the
// inserted one first. The inserted instruction's own fields are taken
// verbatim — callers supply post-shift addresses, e.g. Fence(n+1) to
// fall through to the old occupant of n. Computed targets (jmpi
// operands, code addresses in registers or data) are not remapped.
func (p *Program) InsertAt(n Addr, in Instr) *Program {
	shift := func(a Addr) Addr {
		if a > n {
			return a + 1
		}
		return a
	}
	moved := make(map[Addr]Instr, len(p.Instrs)+1)
	for a, old := range p.Instrs {
		// Remapping the unused address fields of a kind is harmless:
		// they are zero-valued and never read.
		old.Next = shift(old.Next)
		old.True = shift(old.True)
		old.False = shift(old.False)
		old.Callee = shift(old.Callee)
		old.RetPt = shift(old.RetPt)
		if a >= n {
			moved[a+1] = old
		} else {
			moved[a] = old
		}
	}
	moved[n] = in
	p.Instrs = moved
	p.Entry = shift(p.Entry)
	for name, a := range p.Symbols {
		if a <= n {
			continue // below the insertion point, or flows through it
		}
		// Only symbols that denoted an instruction point move with the
		// code (its new home is a+1); data-address bindings (and
		// halt-point labels, which are indistinguishable from them)
		// stay put.
		if _, wasInstr := moved[a+1]; wasInstr {
			p.Symbols[name] = a + 1
		}
	}
	return p
}

// insertAtChain applies sites with the legacy one-at-a-time InsertAt
// loop, ascending, fence falling through to the shifted occupant.
func insertAtChain(orig *Program, sites []Addr) *Program {
	p := orig.Clone()
	for i, s := range sites {
		at := s + Addr(i)
		p.InsertAt(at, Fence(at+1))
	}
	return p
}

func figureProgram() *Program {
	// A v1-shaped program with a branch, loads, a store, a call and a
	// labeled arm — enough reference kinds to exercise every remap.
	b := NewBuilder(1)
	b.Br(OpLt, []Operand{R(Reg(0)), ImmW(4)}, 2, 5) // 1
	b.Load(Reg(1), ImmW(0x40), R(Reg(0)))           // 2
	b.Load(Reg(2), ImmW(0x44), R(Reg(1)))           // 3
	b.Store(R(Reg(2)), ImmW(0x48))                  // 4
	b.Call(7)                                       // 5
	b.Op(Reg(3), OpAdd, ImmW(1))                    // 6
	b.Ret()                                         // 7
	b.Define("arm", 2)
	b.Define("join", 5)
	b.Define("table", 0x40) // data address: must never move
	b.Data(0x40, mem.Pub(7))
	return b.MustBuild()
}

// TestFencePlanMatchesInsertAt pins the compatibility contract: a plan
// of single-fence patches produces the byte-identical program the
// legacy ascending InsertAt loop did, for every subset of sites the
// repair engine could propose.
func TestFencePlanMatchesInsertAt(t *testing.T) {
	orig := figureProgram()
	siteSets := [][]Addr{
		{2},
		{2, 5},
		{1, 3, 6},
		{2, 3, 4, 5, 6, 7},
		{8}, // one past the last instruction: a store-successor site
	}
	for _, sites := range siteSets {
		pl := fencePlan(sites)
		rw, err := pl.Apply(orig)
		if err != nil {
			t.Fatalf("sites %v: %v", sites, err)
		}
		want := insertAtChain(orig, sites)
		if !reflect.DeepEqual(rw.Prog.Instrs, want.Instrs) {
			t.Errorf("sites %v: instruction maps diverge\nplan: %v\nchain: %v", sites, rw.Prog.Instrs, want.Instrs)
		}
		if rw.Prog.Entry != want.Entry {
			t.Errorf("sites %v: entry %d, want %d", sites, rw.Prog.Entry, want.Entry)
		}
		if !reflect.DeepEqual(rw.Prog.Symbols, want.Symbols) {
			t.Errorf("sites %v: symbols %v, want %v", sites, rw.Prog.Symbols, want.Symbols)
		}
		if !reflect.DeepEqual(rw.Prog.Data, want.Data) {
			t.Errorf("sites %v: data image changed", sites)
		}
		// The map agrees with the historic shift arithmetic.
		for _, a := range orig.Points() {
			shiftLoc, shiftTgt := Addr(0), Addr(0)
			for _, s := range sites {
				if s <= a {
					shiftLoc++
				}
				if s < a {
					shiftTgt++
				}
			}
			if got := rw.Map.Addr(a); got != a+shiftLoc {
				t.Errorf("sites %v: Map.Addr(%d) = %d, want %d", sites, a, got, a+shiftLoc)
			}
			if got := rw.Map.Target(a); got != a+shiftTgt {
				t.Errorf("sites %v: Map.Target(%d) = %d, want %d", sites, a, got, a+shiftTgt)
			}
			if back, ok := rw.Orig[rw.Map.Addr(a)]; !ok || back != a {
				t.Errorf("sites %v: Orig[%d] = %d,%v, want %d", sites, rw.Map.Addr(a), back, ok, a)
			}
		}
	}
}

// TestMultiInsertBlock pins the block layout of a multi-instruction
// patch: insertions occupy consecutive slots before the occupant, the
// own-point convention chains each instruction to the next slot, and
// only non-head slots count as interior.
func TestMultiInsertBlock(t *testing.T) {
	b := NewBuilder(1)
	b.Op(Reg(0), OpAdd, ImmW(1)) // 1
	b.Load(Reg(1), R(Reg(0)))    // 2
	b.Op(Reg(2), OpAdd, ImmW(2)) // 3
	orig := b.MustBuild()

	var pl Plan
	pl.Add(Patch{At: 2, Insert: []Instr{
		Op(Reg(9), OpAdd, []Operand{R(Reg(0))}, 2),          // falls to the and
		Op(Reg(9), OpAnd, []Operand{R(Reg(9)), ImmW(7)}, 2), // falls to the occupant
	}})
	rw, err := pl.Apply(orig)
	if err != nil {
		t.Fatal(err)
	}
	// Layout: 1 → block at 2,3 → occupant at 4 → 5.
	if got := rw.Map.Target(2); got != 2 {
		t.Fatalf("block start = %d, want 2", got)
	}
	if got := rw.Map.Addr(2); got != 4 {
		t.Fatalf("occupant location = %d, want 4", got)
	}
	first, _ := rw.Prog.At(2)
	second, _ := rw.Prog.At(3)
	occupant, _ := rw.Prog.At(4)
	if first.Kind != KOp || first.Next != 3 {
		t.Fatalf("block head = %v, want fall-through to 3", first)
	}
	if second.Next != 4 {
		t.Fatalf("block interior falls to %d, want the occupant at 4", second.Next)
	}
	if occupant.Kind != KLoad || occupant.Next != 5 {
		t.Fatalf("occupant = %v, want the load falling to 5", occupant)
	}
	if !reflect.DeepEqual(rw.Inserted, []Addr{2, 3}) {
		t.Fatalf("Inserted = %v", rw.Inserted)
	}
	// The predecessor's fall-through enters the block head.
	prev, _ := rw.Prog.At(1)
	if prev.Next != 2 {
		t.Fatalf("predecessor falls to %d, want the block head 2", prev.Next)
	}
}

// TestReplacePatch: a replacement substitutes the occupant in place,
// with its fields remapped as original-space references.
func TestReplacePatch(t *testing.T) {
	b := NewBuilder(1)
	b.Op(Reg(0), OpAdd, ImmW(1))                    // 1
	b.Br(OpLt, []Operand{R(Reg(0)), ImmW(4)}, 3, 4) // 2
	b.Load(Reg(1), R(Reg(0)))                       // 3
	b.Op(Reg(2), OpAdd, ImmW(2))                    // 4
	orig := b.MustBuild()

	var pl Plan
	repl := Load(Reg(1), []Operand{R(Reg(9))}, 4) // original-space Next
	pl.Add(Patch{At: 3, Insert: []Instr{Op(Reg(9), OpAdd, []Operand{R(Reg(0))}, 3)}, Replace: &repl})
	rw, err := pl.Apply(orig)
	if err != nil {
		t.Fatal(err)
	}
	// 3 gains a one-instruction block, so the replacement sits at 4 and
	// the old 4 at 5.
	got, _ := rw.Prog.At(4)
	if got.Kind != KLoad || !got.Args[0].IsReg || got.Args[0].Reg != Reg(9) || got.Next != 5 {
		t.Fatalf("replacement = %v, want masked load falling to 5", got)
	}
	if back := rw.Orig[4]; back != 3 {
		t.Fatalf("replacement lost its identity: Orig[4] = %d, want 3", back)
	}
	br, _ := rw.Prog.At(2)
	if br.True != 3 || br.False != 5 {
		t.Fatalf("branch arms = %d/%d, want 3/5 (true arm enters the block)", br.True, br.False)
	}

	var bad Plan
	miss := Ret()
	bad.Add(Patch{At: 9, Replace: &miss})
	if _, err := bad.Apply(orig); err == nil {
		t.Fatal("replacement at a halt point must be rejected")
	}
}

// TestPlanAddMerges: patches at one point merge append-wise.
func TestPlanAddMerges(t *testing.T) {
	var pl Plan
	pl.Add(Patch{At: 5, Insert: []Instr{Fence(5)}})
	pl.Add(Patch{At: 2, Insert: []Instr{Fence(2)}})
	pl.Add(Patch{At: 5, Insert: []Instr{Fence(5)}})
	ps := pl.Patches()
	if len(ps) != 2 || ps[0].At != 2 || ps[1].At != 5 || len(ps[1].Insert) != 2 {
		t.Fatalf("merged patches = %+v", ps)
	}
	if pl.InsertCount() != 3 {
		t.Fatalf("InsertCount = %d", pl.InsertCount())
	}
}

// TestPlanJmpiHazard mirrors the repair engine's historic
// computed-jump rules on the plan form.
func TestPlanJmpiHazard(t *testing.T) {
	b := NewBuilder(1)
	b.Op(Reg(0), OpAdd, ImmW(0)) // 1
	b.Op(Reg(0), OpAdd, ImmW(0)) // 2
	b.Jmpi(ImmW(5))              // 3
	b.Op(Reg(0), OpAdd, ImmW(0)) // 4
	b.Op(Reg(0), OpAdd, ImmW(0)) // 5
	p := b.MustBuild()

	empty := Plan{}
	if _, hazard := empty.JmpiHazard(p); hazard {
		t.Error("empty plan cannot shift anything")
	}
	at5 := fencePlan([]Addr{5})
	if _, hazard := at5.JmpiHazard(p); hazard {
		t.Error("insertion at the jump target does not shift it")
	}
	below := fencePlan([]Addr{2})
	if pc, hazard := below.JmpiHazard(p); !hazard || pc != 3 {
		t.Errorf("insertion below the target must be a hazard at the jmpi: got (%d, %v)", pc, hazard)
	}

	b2 := NewBuilder(1)
	b2.Jmpi(R(Reg(0)))            // 1
	b2.Op(Reg(0), OpAdd, ImmW(0)) // 2
	p2 := b2.MustBuild()
	reg := fencePlan([]Addr{2})
	if pc, hazard := reg.JmpiHazard(p2); !hazard || pc != 1 {
		t.Errorf("register-target jmpi must flag any insertion: got (%d, %v)", pc, hazard)
	}
	// A plan that REPLACES the jmpi removes the hazard: the replacement
	// is plan-authored and remapped normally.
	var repl Plan
	nop := Op(Reg(0), OpAdd, []Operand{ImmW(0)}, 2)
	repl.Add(Patch{At: 1, Replace: &nop})
	repl.Add(Patch{At: 2, Insert: []Instr{Fence(2)}})
	if pc, hazard := repl.JmpiHazard(p2); hazard {
		t.Errorf("replaced jmpi still flagged at %d", pc)
	}
}

func TestInsertAtShiftsAndRemaps(t *testing.T) {
	// 1: br(gt, [4, ra], 2, 5); 2: load; 3: store; 4: call 1 ret 5;
	// insert a fence at 2 (before the load).
	p := NewProgram(1)
	p.Add(1, Br(OpGt, []Operand{ImmW(4), R(0)}, 2, 5))
	p.Add(2, Load(1, []Operand{ImmW(0x40), R(0)}, 3))
	p.Add(3, Store(R(1), []Operand{ImmW(0x41)}, 4))
	p.Add(4, Call(1, 5))
	p.SetData(0x40, mem.Pub(7))
	p.Define("body", 2)
	p.Define("st", 3)
	p.Define("buf", 0x40)
	p.InsertAt(2, Fence(3))

	if in, ok := p.At(2); !ok || in.Kind != KFence || in.Next != 3 {
		t.Fatalf("point 2 should hold the inserted fence, got %v", in)
	}
	br, _ := p.At(1)
	if br.True != 2 || br.False != 6 {
		t.Fatalf("branch targets = (%d, %d), want (2, 6): a target equal to the site flows through the fence", br.True, br.False)
	}
	ld, ok := p.At(3)
	if !ok || ld.Kind != KLoad || ld.Next != 4 {
		t.Fatalf("load should have moved to 3 with Next 4, got %v (ok=%v)", ld, ok)
	}
	st, _ := p.At(4)
	if st.Kind != KStore || st.Next != 5 {
		t.Fatalf("store should have moved to 4 with Next 5, got %v", st)
	}
	call, _ := p.At(5)
	if call.Kind != KCall || call.Callee != 1 || call.RetPt != 6 {
		t.Fatalf("call should have moved to 5 with callee 1, retpt 6, got %v", call)
	}
	if a, _ := p.Lookup("body"); a != 2 {
		t.Fatalf("a symbol at the site should flow through the fence like a target, got %d", a)
	}
	if a, _ := p.Lookup("st"); a != 4 {
		t.Fatalf("a code symbol above the site should follow its instruction, got %d", a)
	}
	if a, _ := p.Lookup("buf"); a != 0x40 {
		t.Fatalf("data symbol must not move, got %#x", a)
	}
	if v, ok := p.Data[0x40]; !ok || v != mem.Pub(7) {
		t.Fatal("data image must be untouched")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("rewritten program invalid: %v", err)
	}
}

func TestInsertAtEntry(t *testing.T) {
	p := NewProgram(1)
	p.Add(1, Ret())
	p.InsertAt(1, Fence(2))
	if p.Entry != 1 {
		t.Fatalf("entry should stay at the inserted instruction, got %d", p.Entry)
	}
	if in, _ := p.At(1); in.Kind != KFence {
		t.Fatal("entry does not hold the fence")
	}
	if in, _ := p.At(2); in.Kind != KRet {
		t.Fatal("old entry instruction did not shift")
	}
}

func TestInsertAtEntryBelowShifts(t *testing.T) {
	p := NewProgram(5)
	p.Add(5, Ret())
	p.InsertAt(3, Fence(4))
	if p.Entry != 6 {
		t.Fatalf("entry above the site must shift, got %d", p.Entry)
	}
	if in, ok := p.At(6); !ok || in.Kind != KRet {
		t.Fatal("instruction did not shift past the site")
	}
}

func TestInsertAtHaltPointStaysHalting(t *testing.T) {
	// Instructions at 1..2, halt at 3, more code at 9. Inserting at the
	// halt point must keep control reaching it halting (after the
	// transparent fence) and must not capture the distant code.
	p := NewProgram(1)
	p.Add(1, Op(0, OpMov, []Operand{ImmW(0)}, 2))
	p.Add(2, Op(0, OpMov, []Operand{ImmW(0)}, 3))
	p.Add(9, Ret())
	p.InsertAt(3, Fence(4))
	if _, ok := p.At(4); ok {
		t.Fatal("halt point after the fence should stay empty")
	}
	if _, ok := p.At(10); !ok {
		t.Fatal("distant instruction should shift from 9 to 10")
	}
}
