// Package taint implements the static speculative-taint pre-analysis:
// a flow-sensitive abstract interpreter over isa.Program that decides,
// per program point and in O(|program|) fixpoint iterations, whether a
// transiently secret-tainted value can reach an observation sink — a
// memory address, a branch condition, or a jump target, the only label
// carriers of the paper's observation syntax (§3). Points where that
// is impossible are provably safe: no schedule of the speculative
// semantics, up to any bound, can make the explorer flag them.
//
// The analysis over-approximates every transient execution the
// exploration engine can drive:
//
//   - wrong-path execution (PHT guesses): both arms of every branch
//     are control-flow successors, so taint propagates through code
//     the architectural execution would skip;
//   - store bypass and forwarding (STL): the memory abstraction is
//     accumulate-only — a cell's label joins every value any reachable
//     store could ever write to it, never strong-updating, so stale
//     and forwarded values are covered regardless of schedule;
//   - computed control flow (jmpi, RSB/stale returns): a program
//     containing an indirect jump without a single immediate target,
//     or any return, conservatively makes every instruction point
//     speculatively reachable, since a transient return may predict
//     through any value a store planted (Fig. 10).
//
// Addresses are tracked by label only, not by value: a load or store
// whose address operands are not a single immediate reads from (or
// writes to) the unknown-address summary, which soundly aliases all of
// memory. The result is deliberately conservative — its one consumer,
// the certificate behind spectre.WithStaticPass, only needs a
// one-sided guarantee: it certifies Safe programs without building an
// explorer, and otherwise attaches the per-point verdicts to the
// hybrid report.
package taint

import (
	"fmt"
	"slices"
	"sort"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

// Config seeds an analysis: the program plus the same secret labeling
// the explorer's initial configuration carries. Registers and memory
// cells absent from the maps are Public; memory labels join over the
// program's data image, so callers only list bindings the image does
// not already carry (symbolic secrets, seeded registers).
type Config struct {
	Prog *isa.Program
	Regs map[isa.Reg]mem.Label
	Mem  map[isa.Addr]mem.Label
}

// Report is the analysis result: per-point speculative reachability
// and verdicts.
// Reports are immutable after Analyze and safe for concurrent readers.
type Report struct {
	// Points is the number of instruction points analyzed; Reachable
	// the number of speculatively reachable ones.
	Points    int
	Reachable int
	// ComputedFlow reports whether the program contains control flow
	// whose successors are not statically known (computed jmpi targets
	// or returns), forcing whole-program reachability.
	ComputedFlow bool

	reachable  map[isa.Addr]bool
	suspicious map[isa.Addr]bool
}

// Safe reports whether every reachable point is provably safe — the
// whole program carries the static certificate.
func (r *Report) Safe() bool { return len(r.suspicious) == 0 }

// SafePoint reports whether the point is provably safe: either not
// speculatively reachable at all, or reachable with a statically
// public sink label — no transient execution can produce a
// secret-labeled observation there.
func (r *Report) SafePoint(pp isa.Addr) bool { return !r.suspicious[pp] }

// SuspiciousPoints returns the suspicious program points in increasing
// order.
func (r *Report) SuspiciousPoints() []isa.Addr {
	out := make([]isa.Addr, 0, len(r.suspicious))
	for pp := range r.suspicious {
		out = append(out, pp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// regIndex numbers the registers one program names, densely from 0,
// so that a register state is a bitset over them. It is built once per
// analysis; a register the program never names is never written or
// read, so it needs no bit.
type regIndex map[isa.Reg]int

// indexRegs indexes every register the program's instructions name,
// plus the RSP and RTMP the call and return expansions use, in point
// order.
func indexRegs(p *isa.Program, points []isa.Addr) regIndex {
	idx := regIndex{}
	add := func(r isa.Reg) {
		if _, ok := idx[r]; !ok {
			idx[r] = len(idx)
		}
	}
	add(mem.RSP)
	add(mem.RTMP)
	for _, pp := range points {
		in := p.Instrs[pp]
		if in.Kind == isa.KOp || in.Kind == isa.KLoad {
			add(in.Dst)
		}
		for _, o := range in.Args {
			if o.IsReg {
				add(o.Reg)
			}
		}
		if in.Src.IsReg {
			add(in.Src.Reg)
		}
	}
	return idx
}

// regState is the set of registers that may hold a secret, as a bitset
// over the program's regIndex. The label lattice has two points, so a
// register's label is its bit and a join is an OR.
type regState struct {
	idx  regIndex
	bits []uint64
}

func newRegState(idx regIndex) regState {
	return regState{idx: idx, bits: make([]uint64, (len(idx)+63)/64)}
}

func (s regState) get(r isa.Reg) mem.Label {
	i, ok := s.idx[r]
	if !ok {
		return mem.Public
	}
	return mem.Label(s.bits[i/64] >> (i % 64) & 1)
}

// set gives r the label l; r must be indexed.
func (s regState) set(r isa.Reg, l mem.Label) {
	i := s.idx[r]
	if l.IsSecret() {
		s.bits[i/64] |= 1 << (i % 64)
	} else {
		s.bits[i/64] &^= 1 << (i % 64)
	}
}

func (s regState) clone() regState {
	return regState{idx: s.idx, bits: slices.Clone(s.bits)}
}

// joinInto joins o into s and reports whether s changed.
func (s regState) joinInto(o regState) bool {
	changed := false
	for w, b := range o.bits {
		if b&^s.bits[w] != 0 {
			s.bits[w] |= b
			changed = true
		}
	}
	return changed
}

// memState is the accumulate-only memory abstraction: per-cell labels
// for statically known addresses plus one summary label for everything
// written through a statically unknown address. Reads join the unknown
// summary in, since an unknown-address store may alias any cell.
type memState struct {
	known   map[isa.Addr]mem.Label
	unknown mem.Label
	all     mem.Label // join of every known cell and the unknown summary
}

func (ms *memState) read(a isa.Addr) mem.Label { return ms.known[a].Join(ms.unknown) }

func (ms *memState) writeKnown(a isa.Addr, l mem.Label) bool {
	j := ms.known[a].Join(l)
	if j == ms.known[a] {
		return false
	}
	ms.known[a] = j
	ms.all = ms.all.Join(j)
	return true
}

func (ms *memState) writeUnknown(l mem.Label) bool {
	j := ms.unknown.Join(l)
	if j == ms.unknown {
		return false
	}
	ms.unknown = j
	ms.all = ms.all.Join(j)
	return true
}

// Analyze runs the abstract interpretation and returns the report.
func Analyze(cfg Config) (*Report, error) {
	if cfg.Prog == nil {
		return nil, fmt.Errorf("taint: nil program")
	}
	p := cfg.Prog
	points := p.Points()
	rep := &Report{
		Points:     len(points),
		reachable:  make(map[isa.Addr]bool, len(points)),
		suspicious: make(map[isa.Addr]bool),
	}
	if len(points) == 0 {
		return rep, nil
	}

	// Static control flow. An instruction with statically unknown
	// successors poisons the whole CFG: every point becomes reachable.
	succs := make(map[isa.Addr][]isa.Addr, len(points))
	for _, pp := range points {
		in := p.Instrs[pp]
		ss, ok := in.StaticSuccessors(nil)
		if !ok {
			rep.ComputedFlow = true
		}
		// Keep only successors that are instruction points; the rest
		// are halt points with no effects to propagate to.
		kept := ss[:0]
		for _, s := range ss {
			if _, isInstr := p.Instrs[s]; isInstr {
				kept = append(kept, s)
			}
		}
		succs[pp] = kept
	}

	// Speculative reachability.
	if rep.ComputedFlow {
		for _, pp := range points {
			rep.reachable[pp] = true
		}
	} else {
		work := []isa.Addr{p.Entry}
		for len(work) > 0 {
			pp := work[len(work)-1]
			work = work[:len(work)-1]
			if rep.reachable[pp] {
				continue
			}
			if _, ok := p.Instrs[pp]; !ok {
				continue
			}
			rep.reachable[pp] = true
			work = append(work, succs[pp]...)
		}
	}
	rep.Reachable = len(rep.reachable)

	// Initial memory labels: the data image joined with the caller's
	// extra bindings.
	ms := &memState{known: make(map[isa.Addr]mem.Label, len(cfg.Mem))}
	for a, v := range p.Data() {
		ms.writeKnown(a, v.L)
	}
	for a, l := range cfg.Mem {
		ms.writeKnown(a, l)
	}

	idx := indexRegs(p, points)
	entrySeed := newRegState(idx)
	for r, l := range cfg.Regs {
		if _, named := idx[r]; named {
			entrySeed.set(r, l)
		}
	}

	// Register fixpoint under the current memory summary, re-run until
	// the memory abstraction itself stabilizes: stores accumulate into
	// memory while loads read from it, and the flow-insensitive memory
	// must reflect every reachable store regardless of program order
	// (a speculative load may forward from a store that is later in
	// program order but earlier in the schedule). Both lattices are
	// finite and the transfer functions monotone, so this terminates.
	var in map[isa.Addr]regState
	for {
		in = runRegFixpoint(p, rep, succs, points, entrySeed, ms)
		changed := false
		for _, pp := range points {
			if !rep.reachable[pp] {
				continue
			}
			if applyMemEffects(p.Instrs[pp], in[pp], ms) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Verdicts: a reachable point is suspicious iff its sink label —
	// the join of every label its observations can expose — is secret.
	for _, pp := range points {
		if !rep.reachable[pp] {
			continue
		}
		if sinkLabel(p.Instrs[pp], in[pp], ms).IsSecret() {
			rep.suspicious[pp] = true
		}
	}

	return rep, nil
}

// runRegFixpoint computes the register in-states of every reachable
// point under the (fixed) memory summary ms, by worklist iteration in
// ascending point order for determinism.
func runRegFixpoint(p *isa.Program, rep *Report, succs map[isa.Addr][]isa.Addr, points []isa.Addr, entrySeed regState, ms *memState) map[isa.Addr]regState {
	in := make(map[isa.Addr]regState, rep.Reachable)
	dirty := make(map[isa.Addr]bool, rep.Reachable)
	if rep.ComputedFlow {
		// Every reachable point may be entered with any predecessor's
		// out-state; seeding every point dirty with the entry seed and
		// letting edges join handles the statically known edges, while
		// the computed edges are covered below by joining every
		// out-state into every point.
		for pp := range rep.reachable {
			in[pp] = entrySeed.clone()
			dirty[pp] = true
		}
	} else {
		in[p.Entry] = entrySeed.clone()
		dirty[p.Entry] = true
	}

	queue := make([]isa.Addr, 0, len(dirty))
	for pp := range dirty {
		queue = append(queue, pp)
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })

	for len(queue) > 0 {
		pp := queue[0]
		queue = queue[1:]
		if !dirty[pp] {
			continue
		}
		dirty[pp] = false
		out := transfer(p.Instrs[pp], in[pp], ms)
		targets := succs[pp]
		if rep.ComputedFlow {
			// A computed edge may lead anywhere: propagate this
			// out-state into every instruction point. The join is
			// monotone, so precision is lost but termination and
			// soundness hold.
			targets = points
		}
		for _, s := range targets {
			if !rep.reachable[s] {
				continue
			}
			dst, ok := in[s]
			if !ok {
				in[s] = out.clone()
				dirty[s] = true
				queue = append(queue, s)
				continue
			}
			if dst.joinInto(out) && !dirty[s] {
				dirty[s] = true
				queue = append(queue, s)
			}
		}
	}
	return in
}

// operandLabel is the static label of one operand under the register
// in-state.
func operandLabel(o isa.Operand, rs regState, _ *memState) mem.Label {
	if o.IsReg {
		return rs.get(o.Reg)
	}
	return o.Imm.L
}

func argsLabel(os []isa.Operand, rs regState, ms *memState) mem.Label {
	l := mem.Public
	for _, o := range os {
		l = l.Join(operandLabel(o, rs, ms))
	}
	return l
}

// staticAddr resolves an address operand list statically: known iff it
// is a single immediate (label tracking carries no values).
func staticAddr(os []isa.Operand) (isa.Addr, bool) {
	if len(os) == 1 && !os[0].IsReg {
		return os[0].Imm.W, true
	}
	return 0, false
}

// transfer applies the instruction's register effects to a copy of the
// in-state.
func transfer(in isa.Instr, rs regState, ms *memState) regState {
	out := rs.clone()
	switch in.Kind {
	case isa.KOp:
		// Eval joins every operand label into the result, including a
		// select's condition.
		out.set(in.Dst, argsLabel(in.Args, rs, ms))
	case isa.KLoad:
		if a, ok := staticAddr(in.Args); ok {
			out.set(in.Dst, ms.read(a))
		} else {
			// Unknown address: the load may read any cell, stale or
			// forwarded — the join of all of memory.
			out.set(in.Dst, ms.all)
		}
	case isa.KCall:
		// The expansion pushes the (public) return address through
		// RTMP and moves RSP by a public constant: RSP's label is
		// preserved, RTMP becomes public.
		out.set(mem.RTMP, mem.Public)
	case isa.KRet:
		// The expansion pops through RTMP: transiently the popped
		// value may be anything a store planted in the return slot.
		out.set(mem.RTMP, ms.all)
	}
	return out
}

// applyMemEffects accumulates the instruction's store effects into the
// memory abstraction, reporting whether it changed. Calls push the
// public return address through RSP — an unknown address whose label
// is RSP's.
func applyMemEffects(in isa.Instr, rs regState, ms *memState) bool {
	switch in.Kind {
	case isa.KStore:
		val := operandLabel(in.Src, rs, ms)
		if a, ok := staticAddr(in.Args); ok {
			return ms.writeKnown(a, val)
		}
		return ms.writeUnknown(val)
	case isa.KCall:
		// Return-address push: public value at an RSP-derived
		// (unknown) address.
		return ms.writeUnknown(mem.Public)
	}
	return false
}

// sinkLabel joins every label the instruction's observations can
// expose: addresses for loads and stores, conditions for branches,
// targets for indirect jumps, and the stack/return machinery for
// calls and returns (the expansion's push, pop, and predicted jump).
func sinkLabel(in isa.Instr, rs regState, ms *memState) mem.Label {
	switch in.Kind {
	case isa.KBr, isa.KJmpi, isa.KLoad, isa.KStore:
		return argsLabel(in.SinkArgs(), rs, ms)
	case isa.KCall:
		// write observation at the RSP-derived push address.
		return rs.get(mem.RSP)
	case isa.KRet:
		// read observation at the RSP-derived pop address, plus a jump
		// observation labeled by the popped value — transiently any
		// value a store planted (the stale-return window).
		return rs.get(mem.RSP).Join(ms.all)
	}
	return mem.Public
}
