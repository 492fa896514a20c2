package repair

import (
	"fmt"
	"sort"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
	"pitchfork/internal/pitchfork"
	"pitchfork/internal/sched"
)

// retMitigation protects return speculation with the paper's Figure 13
// construction: a ret's transient target is an RSB prediction that can
// be stale — pushed for a different return — so instead of trusting it
// the pass rewrites every flagged ret into a retpoline that parks
// mis-speculation on a fence:
//
//	r:  rtmp = load [rsp]      // pop the architectural return target…
//	    rsp  = pred(rsp)       // …exactly as the ret expansion would
//	    fence                  // serialize: rtmp settles before any return
//	    call STORE, ret→FENCE  // push FENCE onto the RSB and the stack
//	    …
//	FENCE: fence               // ← the only point ret speculation reaches
//	       (falls through to a halt slot)
//	STORE: store rtmp → [rsp]  // overwrite the pushed FENCE with the target
//	       ret                 // RSB predicts FENCE; resolves to the target
//
// Two mechanisms compose. First, the trampoline's inner ret always
// finds the call's own RSB entry on top — each trampoline pushes
// before it pops, so stale entries left by the original program are
// never the prediction — and that entry names the fence: the
// speculative window fetches the fence and parks, with nowhere to go
// and nothing younger executable. Second, the serializing fence keeps
// the inner ret from resolving against a stale stack read: the return
// target it redirects to is the retired-memory value, after every
// older store has settled. A plain fence before a ret gives only the
// second guarantee — the ret itself still fetches from a stale RSB
// top, and the fetched gadget executes under the unresolved return —
// which is why flagged rets get a trampoline rather than a fence. One
// trampoline tail (fence + store/ret) is shared by every rewritten
// ret; it is placed past the program's last point, leaving one empty
// slot so programs that halt by falling off the end keep halting
// there.
//
// The pass claims mem.RTMP architecturally (the ret expansion only
// ever writes it transiently), so it refuses programs that read rtmp.
// The trampoline adds stack traffic the original ret did not have —
// the behaviour certificate admits it because every added observation
// is public and attributed to plan-authored instructions.
type retMitigation struct{}

func (retMitigation) Name() string { return StrategyRet }

func (retMitigation) CandidateSites(orig *isa.Program, v pitchfork.Violation, inv map[isa.Addr]isa.Addr) []isa.Addr {
	var sites []isa.Addr
	for _, s := range v.Sources {
		if s.Kind != sched.SrcRet {
			continue
		}
		opc, ok := inv[s.PC]
		if !ok {
			continue
		}
		if in, ok := orig.At(opc); ok && in.Kind == isa.KRet {
			sites = append(sites, opc)
		}
	}
	return sites
}

func (retMitigation) FallbackSite(orig *isa.Program, v pitchfork.Violation, inv map[isa.Addr]isa.Addr) (isa.Addr, bool) {
	return 0, false // a retpoline guards rets; other sources need other strategies
}

func (retMitigation) Plan(orig *isa.Program, sites []isa.Addr) (*isa.Plan, error) {
	if readsReg(orig, mem.RTMP) {
		return nil, fmt.Errorf("repair: ret: program reads the scratch register %s", isa.RegName(mem.RTMP))
	}
	points := orig.Points()
	// fencePt's block head becomes the retpoline fence; the +2 leaves
	// the fall-off-the-end halt slot (last point + 1) unpatched.
	fencePt := points[len(points)-1] + 2
	storePt := fencePt + 1
	var pl isa.Plan
	n := 0
	for _, r := range sites {
		in, ok := orig.At(r)
		if !ok || in.Kind != isa.KRet {
			continue
		}
		n++
		repl := isa.Call(storePt, fencePt)
		pl.Add(isa.Patch{At: r, Insert: []isa.Instr{
			isa.Load(mem.RTMP, []isa.Operand{isa.R(mem.RSP)}, r),
			isa.Op(mem.RSP, isa.OpPred, []isa.Operand{isa.R(mem.RSP)}, r),
			isa.Fence(r),
		}, Replace: &repl})
	}
	if n == 0 {
		return nil, fmt.Errorf("repair: ret: no ret instruction at any committed site")
	}
	// Shared trampoline tail. The fence's Next names its own patch
	// point, i.e. the block's next slot — which is the patch's empty
	// occupant gap, a halt point: parked speculation has nowhere to go.
	pl.Add(isa.Patch{At: fencePt, Insert: []isa.Instr{
		isa.Fence(fencePt),
	}})
	pl.Add(isa.Patch{At: storePt, Insert: []isa.Instr{
		isa.Store(isa.R(mem.RTMP), []isa.Operand{isa.R(mem.RSP)}, storePt),
		isa.Ret(),
	}})
	return &pl, nil
}

// returnTargets enumerates the statically evident return points of a
// program, ascending and deduplicated: the return point of every call
// (the only addresses the call expansion ever pushes) and every
// data-image word that names an instruction point (a return address a
// store could place in the return slot). The mask pass's flow
// over-approximation dispatches rets over this set.
func returnTargets(p *isa.Program) []isa.Addr {
	seen := make(map[isa.Addr]bool)
	var out []isa.Addr
	add := func(a isa.Addr) {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	for _, pc := range p.Points() {
		if in, _ := p.At(pc); in.Kind == isa.KCall {
			add(in.RetPt)
		}
	}
	for _, v := range p.Data() {
		if _, ok := p.At(isa.Addr(v.W)); ok {
			add(isa.Addr(v.W))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
