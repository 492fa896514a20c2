package isa

import (
	"fmt"
	"maps"
	"sort"
)

// This file is the patch-plan rewriter: a Plan collects per-point
// patches (blocks of inserted instructions and/or a replacement of the
// point's occupant), computes ONE address map for the whole plan, and
// applies everything in a single pass. The shift rule: k instructions
// inserted at point s move every instruction located at or above s up
// by k, and every control reference strictly above s; a reference equal
// to s keeps naming s, which now holds the head of the inserted block,
// so control that targeted the old occupant flows through the block
// into it.

// Patch describes the rewrite of one original program point At:
// Insert instructions are placed, in order, BEFORE the point's
// occupant, and Replace (if non-nil) substitutes the occupant itself.
//
// Address fields of Insert and Replace instructions are written in
// ORIGINAL program coordinates and remapped like any other control
// reference when the plan is applied, with one convention: an address
// field of an INSERTED instruction that equals the patch's own At
// means "the next instruction of this block" — the natural
// fall-through that ends at the point's (possibly replaced) occupant.
// Fence(s) at At = s therefore falls through to the point's occupant.
type Patch struct {
	At      Addr
	Insert  []Instr
	Replace *Instr
}

// Plan is a set of patches, at most one per program point. The zero
// value is an empty plan.
type Plan struct {
	patches []Patch
}

// Add merges a patch into the plan: a patch at a new point is
// inserted in address order; a patch at an existing point appends its
// Insert block after the instructions already there, and its Replace
// (if any) overrides the previous one.
func (pl *Plan) Add(p Patch) {
	i := sort.Search(len(pl.patches), func(i int) bool { return pl.patches[i].At >= p.At })
	if i < len(pl.patches) && pl.patches[i].At == p.At {
		pl.patches[i].Insert = append(pl.patches[i].Insert, p.Insert...)
		if p.Replace != nil {
			pl.patches[i].Replace = p.Replace
		}
		return
	}
	pl.patches = append(pl.patches, Patch{})
	copy(pl.patches[i+1:], pl.patches[i:])
	pl.patches[i] = p
}

// Empty reports whether the plan rewrites nothing.
func (pl *Plan) Empty() bool { return len(pl.patches) == 0 }

// AddrMap translates original program points into the address space of
// a plan's rewritten program. It is computed once per plan; lookups
// are O(log sites) binary searches over the precomputed cumulative
// shifts.
type AddrMap struct {
	sites []Addr // ascending insertion sites with at least one inserted instruction
	cum   []Addr // cum[i]: total instructions inserted at sites[0..i]
}

// shiftAtOrBelow returns the cumulative insertion count at sites ≤ a.
func (m AddrMap) shiftAtOrBelow(a Addr) Addr {
	i := sort.Search(len(m.sites), func(i int) bool { return m.sites[i] > a })
	if i == 0 {
		return 0
	}
	return m.cum[i-1]
}

// shiftBelow returns the cumulative insertion count at sites < a.
func (m AddrMap) shiftBelow(a Addr) Addr {
	i := sort.Search(len(m.sites), func(i int) bool { return m.sites[i] >= a })
	if i == 0 {
		return 0
	}
	return m.cum[i-1]
}

// Addr translates an instruction LOCATION: every instruction inserted
// at or below the point shifts it up.
func (m AddrMap) Addr(a Addr) Addr { return a + m.shiftAtOrBelow(a) }

// Target translates a control-flow TARGET: a target equal to a patch
// point keeps pointing at the start of the inserted block — control
// flows through the insertions into the old occupant — so only
// insertions strictly below shift it.
func (m AddrMap) Target(a Addr) Addr { return a + m.shiftBelow(a) }

// addrMapOf precomputes the cumulative shifts of the plan's insertions.
func (pl *Plan) addrMapOf() AddrMap {
	var m AddrMap
	var total Addr
	for _, p := range pl.patches {
		if len(p.Insert) == 0 {
			continue
		}
		total += Addr(len(p.Insert))
		m.sites = append(m.sites, p.At)
		m.cum = append(m.cum, total)
	}
	return m
}

// Rewrite is the result of applying a plan: the rewritten program, the
// plan-wide address map, and provenance for every new-space point.
type Rewrite struct {
	// Prog is the rewritten program; the input program is not mutated.
	Prog *Program
	// Map translates original program points into Prog's address space.
	Map AddrMap
	// Orig maps the new-space location of every surviving original
	// instruction (replacements keep their point's identity) back to
	// its original program point. Inserted instructions are absent.
	Orig map[Addr]Addr
	// Inserted lists the new-space points of the plan-inserted
	// instructions, ascending.
	Inserted []Addr
	// Replaced lists the ORIGINAL program points whose occupant the
	// plan replaced, ascending (nil for insertion-only plans).
	Replaced []Addr
}

// ComputedJumpError is Apply's refusal of a plan that would silently
// retarget a computed jump of the original program.
type ComputedJumpError struct {
	// Jump is the original program point of the jmpi.
	Jump Addr
}

func (e *ComputedJumpError) Error() string {
	return fmt.Sprintf("isa: plan would retarget the computed jump at %d", e.Jump)
}

// Apply rewrites orig under the plan and returns the new program with
// its address map. The input program is never mutated. Computed jmpi
// targets are NOT remapped (their value is only known at run time), so
// a plan that would shift one is refused with a *ComputedJumpError
// (see jmpiHazard); callers still certify behavioural preservation
// separately.
func (pl *Plan) Apply(orig *Program) (*Rewrite, error) {
	for i := 1; i < len(pl.patches); i++ {
		if pl.patches[i].At == pl.patches[i-1].At {
			return nil, fmt.Errorf("isa: duplicate patch at %d", pl.patches[i].At)
		}
	}
	m := pl.addrMapOf()
	replaced := make(map[Addr]*Instr, len(pl.patches))
	for _, p := range pl.patches {
		if p.Replace == nil {
			continue
		}
		if _, ok := orig.Instrs[p.At]; !ok {
			return nil, fmt.Errorf("isa: replacement at %d, which has no instruction", p.At)
		}
		replaced[p.At] = p.Replace
	}
	if pc, hazard := jmpiHazard(orig, m, replaced); hazard {
		return nil, &ComputedJumpError{Jump: pc}
	}
	rw := &Rewrite{
		Prog: NewProgram(m.Target(orig.Entry)),
		Map:  m,
		Orig: make(map[Addr]Addr, len(orig.Instrs)),
	}
	remap := func(in Instr) Instr {
		in.Next = m.Target(in.Next)
		in.True = m.Target(in.True)
		in.False = m.Target(in.False)
		in.Callee = m.Target(in.Callee)
		in.RetPt = m.Target(in.RetPt)
		return in
	}
	// A field of an inserted instruction equal to its own patch point
	// falls through to the next slot of the block; anything else is an
	// original-space reference.
	remapInserted := func(in Instr, at, next Addr) Instr {
		f := func(a Addr) Addr {
			if a == at {
				return next
			}
			return m.Target(a)
		}
		in.Next = f(in.Next)
		in.True = f(in.True)
		in.False = f(in.False)
		in.Callee = f(in.Callee)
		in.RetPt = f(in.RetPt)
		return in
	}
	place := func(at Addr, in Instr) error {
		if _, clash := rw.Prog.Instrs[at]; clash {
			return fmt.Errorf("isa: plan places two instructions at %d", at)
		}
		rw.Prog.Instrs[at] = in
		return nil
	}

	// Caller-authored instructions (inserts, replacements) are placed
	// verbatim, a nil Args staying nil, but always get their own
	// backing array so the plan can be reused.
	cloneArgs := func(in *Instr) {
		if in.Args == nil {
			return
		}
		args := make([]Operand, len(in.Args))
		copy(args, in.Args)
		in.Args = args
	}
	// Surviving originals (replacements keep the point's identity).
	for a, in := range orig.Instrs {
		if r := replaced[a]; r != nil {
			in = *r
			cloneArgs(&in)
		} else {
			// Surviving originals are copied exactly as Clone copies
			// them: a fresh, non-nil backing array.
			args := make([]Operand, len(in.Args))
			copy(args, in.Args)
			in.Args = args
		}
		na := m.Addr(a)
		if err := place(na, remap(in)); err != nil {
			return nil, err
		}
		rw.Orig[na] = a
	}

	// Inserted blocks: the block for site s occupies the slots directly
	// below the (shifted) occupant, starting at Target(s).
	for _, p := range pl.patches {
		if p.Replace != nil {
			rw.Replaced = append(rw.Replaced, p.At)
		}
		start := m.Target(p.At)
		for j, in := range p.Insert {
			na := start + Addr(j)
			cloneArgs(&in)
			if err := place(na, remapInserted(in, p.At, na+1)); err != nil {
				return nil, err
			}
			rw.Inserted = append(rw.Inserted, na)
		}
	}
	sort.Slice(rw.Inserted, func(i, j int) bool { return rw.Inserted[i] < rw.Inserted[j] })

	// Symbols denoting instruction points flow through insertions like
	// any control target; data-address bindings (and halt-point labels,
	// indistinguishable from them) stay put.
	for name, a := range orig.Symbols {
		if _, wasInstr := orig.Instrs[a]; wasInstr {
			rw.Prog.Symbols[name] = m.Target(a)
		} else {
			rw.Prog.Symbols[name] = a
		}
	}
	// The data image is unchanged, so it carries over with its image.
	maps.Copy(rw.Prog.data, orig.data)
	rw.Prog.image.Store(orig.image.Load())
	if err := rw.Prog.Validate(); err != nil {
		return nil, fmt.Errorf("isa: plan produces an invalid program: %w", err)
	}
	return rw, nil
}

// jmpiHazard reports whether applying the plan (address map m, point
// replacements replaced) would silently retarget a computed jump of the
// ORIGINAL program. The rewrite remaps every static control-flow
// reference but cannot touch jmpi operands (the target is computed at
// run time): an immediate target T still reads T after the code at T
// shifted — a hazard for any insertion strictly below T (an insertion
// AT T is fine: the old target flows through the block) — and a
// register-computed target could denote any shifted point, so any
// insertion at all is a hazard. Points the plan REPLACES are skipped:
// the replacement's fields are plan-authored and remapped normally, and
// plan-inserted jmpis (e.g. a return-protection dispatch) read run-time
// values that are already post-rewrite addresses. The lowest hazardous
// point is reported.
func jmpiHazard(orig *Program, m AddrMap, replaced map[Addr]*Instr) (Addr, bool) {
	if len(m.sites) == 0 {
		return 0, false
	}
	for _, pc := range orig.Points() {
		if replaced[pc] != nil {
			continue
		}
		in, _ := orig.At(pc)
		if in.Kind != KJmpi {
			continue
		}
		if len(in.Args) == 1 && !in.Args[0].IsReg {
			if t := in.Args[0].Imm.W; m.Target(t) != t {
				return pc, true
			}
			continue
		}
		return pc, true
	}
	return 0, false
}
