package repair

import (
	"fmt"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
	"pitchfork/internal/pitchfork"
	"pitchfork/internal/sched"
)

// maskMitigation is speculative load hardening in the paper's machine:
// instead of stalling speculation, it makes mis-speculated loads
// harmless by masking their addresses with a speculation predicate.
//
// Register convention (documented for program authors): the pass owns
// two scratch registers. mem.RMSK holds the speculation predicate —
// initialized to all-ones at the program entry and updated at every
// protected branch arm with
//
//	rtmp = op(brOp, brArgs)            // recompute the branch condition
//	rmsk = select(rtmp, rmsk, 0)       // true arm (false arm swaps the cases)
//
// so on an architectural path rmsk stays all-ones while on a
// mis-speculated arm it becomes zero as soon as the select resolves.
// mem.RTMP carries the per-site transients (the recomputed condition
// and the masked address); every read of rtmp is adjacent to its
// write, so the in-order fetch of the reorder buffer renames it
// correctly even with other speculation in flight. Each maskable load
// is rewritten to
//
//	rtmp = add(addrArgs)               // the load's address (a sum)
//	rtmp = and(rtmp, rmsk)             // zero on mis-speculated paths
//	dst  = load([rtmp])
//
// The operand chain (load needs rtmp, and needs rmsk, select needs the
// recomputed condition) forces the masked address to resolve after the
// predicate, so no attacker schedule can slip the load in before the
// mask: a wrong-path load reads address 0 — unmapped, hence the
// label-lowering Pub(0) — and downstream leak addresses computed from
// it stay public. The pass refuses programs that use rmsk or read
// rtmp, and only masks loads with at most two address operands; wider
// operand lists are left to other strategies.
//
// A branch is protectable only when each arm is entered from that
// branch alone (sole static predecessor, not the program entry, arms
// distinct): the predicate update is correct exactly when reaching the
// arm implies the branch was just taken. Everything else — whether the
// masking actually removes the leak — is settled by the engine's
// explorer re-verification and behaviour certificate.
type maskMitigation struct{}

func (maskMitigation) Name() string { return StrategyMask }

func (maskMitigation) CandidateSites(orig *isa.Program, v pitchfork.Violation, inv map[isa.Addr]isa.Addr) []isa.Addr {
	var sites []isa.Addr
	for _, s := range v.Sources {
		if s.Kind != sched.SrcBranch {
			continue // masking guards branch speculation only
		}
		opc, ok := inv[s.PC]
		if !ok {
			continue
		}
		if in, ok := orig.At(opc); ok && in.Kind == isa.KBr && maskableArms(orig, in) {
			sites = append(sites, opc)
		}
	}
	return sites
}

func (maskMitigation) FallbackSite(orig *isa.Program, v pitchfork.Violation, inv map[isa.Addr]isa.Addr) (isa.Addr, bool) {
	return 0, false // no escalation: a mask protects sources, not sinks
}

func (maskMitigation) Plan(orig *isa.Program, sites []isa.Addr) (*isa.Plan, error) {
	if readsReg(orig, mem.RMSK) || writesReg(orig, mem.RMSK) {
		return nil, fmt.Errorf("repair: mask: program uses the predicate register %s", isa.RegName(mem.RMSK))
	}
	if readsReg(orig, mem.RTMP) {
		return nil, fmt.Errorf("repair: mask: program reads the scratch register %s", isa.RegName(mem.RTMP))
	}
	var pl isa.Plan
	// Entry: rmsk = not(0) — all-ones before any branch resolves.
	pl.Add(isa.Patch{At: orig.Entry, Insert: []isa.Instr{
		isa.Op(mem.RMSK, isa.OpNot, []isa.Operand{isa.ImmW(0)}, orig.Entry),
	}})
	for _, b := range sites {
		in, ok := orig.At(b)
		if !ok || in.Kind != isa.KBr {
			continue
		}
		cond := func() []isa.Operand {
			args := make([]isa.Operand, len(in.Args))
			copy(args, in.Args)
			return args
		}
		pl.Add(isa.Patch{At: in.True, Insert: []isa.Instr{
			isa.Op(mem.RTMP, in.Op, cond(), in.True),
			isa.Op(mem.RMSK, isa.OpSelect, []isa.Operand{isa.R(mem.RTMP), isa.R(mem.RMSK), isa.ImmW(0)}, in.True),
		}})
		pl.Add(isa.Patch{At: in.False, Insert: []isa.Instr{
			isa.Op(mem.RTMP, in.Op, cond(), in.False),
			isa.Op(mem.RMSK, isa.OpSelect, []isa.Operand{isa.R(mem.RTMP), isa.ImmW(0), isa.R(mem.RMSK)}, in.False),
		}})
	}
	// Mask every computed-address load. Architecturally and(addr,
	// all-ones) is the identity, so unflagged paths are unaffected; the
	// load patches merge AFTER any predicate update at the same point,
	// keeping the update-then-mask order within a shared patch.
	for _, pc := range orig.Points() {
		in, _ := orig.At(pc)
		if in.Kind != isa.KLoad || len(in.Args) > 2 || !hasRegOperand(in.Args) {
			continue
		}
		addr := make([]isa.Operand, len(in.Args))
		copy(addr, in.Args)
		repl := isa.Load(in.Dst, []isa.Operand{isa.R(mem.RTMP)}, in.Next)
		pl.Add(isa.Patch{At: pc, Insert: []isa.Instr{
			isa.Op(mem.RTMP, isa.OpAdd, addr, pc),
			isa.Op(mem.RTMP, isa.OpAnd, []isa.Operand{isa.R(mem.RTMP), isa.R(mem.RMSK)}, pc),
		}, Replace: &repl})
	}
	return &pl, nil
}

func hasRegOperand(args []isa.Operand) bool {
	for _, a := range args {
		if a.IsReg {
			return true
		}
	}
	return false
}

// maskableArms reports whether the predicate updates can be placed on
// both arms of br: arms distinct, neither the entry, and each entered
// from this branch alone under the static flow over-approximation
// (returns dispatch to any call return point or data word naming an
// instruction; a register-computed jmpi makes the flow unknowable and
// disqualifies everything).
func maskableArms(p *isa.Program, br isa.Instr) bool {
	if br.True == br.False || br.True == p.Entry || br.False == p.Entry {
		return false
	}
	preds, ok := staticPreds(p)
	if !ok {
		return false
	}
	return preds[br.True] == 1 && preds[br.False] == 1
}

// staticPreds counts static control-flow predecessors per program
// point. ok is false when the flow cannot be over-approximated (a
// register-computed jmpi).
func staticPreds(p *isa.Program) (map[isa.Addr]int, bool) {
	counts := make(map[isa.Addr]int, len(p.Instrs))
	var buf [4]isa.Addr
	var rets []isa.Addr // computed lazily: shared by every KRet
	for _, pc := range p.Points() {
		in, _ := p.At(pc)
		succs, ok := in.StaticSuccessors(buf[:0])
		if !ok {
			if in.Kind != isa.KRet {
				return nil, false
			}
			if rets == nil {
				rets = returnTargets(p)
			}
			for _, t := range rets {
				counts[t]++
			}
			continue
		}
		for _, t := range succs {
			counts[t]++
		}
	}
	return counts, true
}
