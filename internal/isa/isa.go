// Package isa defines the physical instruction set of the abstract
// machine of §3 of the paper: arithmetic operations, conditional
// branches, loads, stores, indirect jumps, calls, returns, and
// speculation fences (Table 1, "Instruction" column), together with
// programs mapping program points to instructions and the abstract
// address-calculation operator addr.
//
// The ISA is deliberately minimal and explicit — the paper's semantics
// is stated over exactly these forms, so implementing them directly
// makes the semantics-level experiments exact reproductions rather than
// binary-lifting approximations.
package isa

import (
	"fmt"
	"strings"

	"pitchfork/internal/mem"
)

// Addr is a program point n or data address a. The paper draws both
// from the same value domain; we alias the machine word.
type Addr = mem.Word

// Reg names a register; aliased from the substrate so users only import
// one package in the common case.
type Reg = mem.Reg

// Operand is a register-or-value rv as used in operand lists r⃗v.
type Operand struct {
	IsReg bool
	Reg   Reg
	Imm   mem.Value
}

// R returns a register operand.
func R(r Reg) Operand { return Operand{IsReg: true, Reg: r} }

// Imm returns an immediate operand carrying the labeled value v.
func Imm(v mem.Value) Operand { return Operand{Imm: v} }

// ImmW returns a public immediate operand for the word w.
func ImmW(w mem.Word) Operand { return Operand{Imm: mem.Pub(w)} }

// String renders the operand in assembly syntax.
func (o Operand) String() string {
	if o.IsReg {
		return RegName(o.Reg)
	}
	if o.Imm.L.IsPublic() {
		return fmt.Sprintf("%d", int64(o.Imm.W))
	}
	return o.Imm.String()
}

// Kind discriminates the physical instruction forms of Table 1.
type Kind uint8

const (
	KOp    Kind = iota // (r = op(op, r⃗v, n′))
	KBr                // br(op, r⃗v, ntrue, nfalse)
	KLoad              // (r = load(r⃗v, n′))
	KStore             // store(rv, r⃗v, n′)
	KJmpi              // jmpi(r⃗v)
	KCall              // call(nf, nret)
	KRet               // ret
	KFence             // fence n
)

// String returns the mnemonic for the kind.
func (k Kind) String() string {
	switch k {
	case KOp:
		return "op"
	case KBr:
		return "br"
	case KLoad:
		return "load"
	case KStore:
		return "store"
	case KJmpi:
		return "jmpi"
	case KCall:
		return "call"
	case KRet:
		return "ret"
	case KFence:
		return "fence"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Instr is a physical instruction. Which fields are meaningful depends
// on Kind; the constructor functions below build well-formed values and
// Validate rejects malformed ones.
type Instr struct {
	Kind Kind

	Dst  Reg       // KOp, KLoad: destination register r
	Op   Opcode    // KOp: opcode; KBr: boolean operator
	Args []Operand // KOp operands; KBr condition operands; KLoad/KStore address operands r⃗v; KJmpi target operands
	Src  Operand   // KStore: the stored operand rv

	True  Addr // KBr: ntrue
	False Addr // KBr: nfalse
	Next  Addr // KOp, KLoad, KStore, KFence: n′

	Callee Addr // KCall: nf
	RetPt  Addr // KCall: nret
}

// Op builds (r = op(op, r⃗v, n′)).
func Op(dst Reg, op Opcode, args []Operand, next Addr) Instr {
	return Instr{Kind: KOp, Dst: dst, Op: op, Args: args, Next: next}
}

// Br builds br(op, r⃗v, ntrue, nfalse).
func Br(op Opcode, args []Operand, ntrue, nfalse Addr) Instr {
	return Instr{Kind: KBr, Op: op, Args: args, True: ntrue, False: nfalse}
}

// Load builds (r = load(r⃗v, n′)).
func Load(dst Reg, args []Operand, next Addr) Instr {
	return Instr{Kind: KLoad, Dst: dst, Args: args, Next: next}
}

// Store builds store(rv, r⃗v, n′).
func Store(src Operand, args []Operand, next Addr) Instr {
	return Instr{Kind: KStore, Src: src, Args: args, Next: next}
}

// Jmpi builds jmpi(r⃗v).
func Jmpi(args []Operand) Instr {
	return Instr{Kind: KJmpi, Args: args}
}

// Call builds call(nf, nret).
func Call(callee, ret Addr) Instr {
	return Instr{Kind: KCall, Callee: callee, RetPt: ret}
}

// Ret builds ret.
func Ret() Instr { return Instr{Kind: KRet} }

// Fence builds fence n.
func Fence(next Addr) Instr { return Instr{Kind: KFence, Next: next} }

// Writes reports whether the instruction assigns a register, and which.
func (in Instr) Writes() (Reg, bool) {
	switch in.Kind {
	case KOp, KLoad:
		return in.Dst, true
	}
	return 0, false
}

// ---------------------------------------------------------------------
// Static def/use and control-flow metadata. These accessors describe an
// instruction without executing it — the substrate of whole-program
// analyses (internal/taint) that must over-approximate every transient
// execution.
// ---------------------------------------------------------------------

// UsedRegs appends the registers the instruction reads to dst and
// returns the extended slice. Call and return expansions read the
// stack pointer (the return-address push and pop of Appendix A), so
// KCall and KRet report mem.RSP.
func (in Instr) UsedRegs(dst []Reg) []Reg {
	add := func(os []Operand) {
		for _, o := range os {
			if o.IsReg {
				dst = append(dst, o.Reg)
			}
		}
	}
	switch in.Kind {
	case KOp, KBr, KLoad, KJmpi:
		add(in.Args)
	case KStore:
		add(in.Args)
		if in.Src.IsReg {
			dst = append(dst, in.Src.Reg)
		}
	case KCall, KRet:
		dst = append(dst, mem.RSP)
	}
	return dst
}

// SinkArgs returns the operand list whose joined label an execution of
// the instruction exposes through an externally visible observation —
// the address operands of loads and stores (read/fwd/write
// observations), the condition operands of branches, and the target
// operands of indirect jumps (jump observations). Instructions whose
// observations carry no data-dependent label (ops, fences) return nil.
// Calls and returns expose the stack pointer instead of an operand
// list; see UsedRegs and the taint package's modeling.
func (in Instr) SinkArgs() []Operand {
	switch in.Kind {
	case KBr, KLoad, KStore, KJmpi:
		return in.Args
	}
	return nil
}

// StaticSuccessors appends the statically known successor program
// points of the instruction to dst. ok is false when the successor set
// cannot be determined statically: an indirect jump whose target is
// not a single immediate (the computed address depends on run-time
// register contents), or a return
// (whose transient target is an RSB — or stale in-memory — prediction
// that may point anywhere a store could reach, Fig. 10). Conditional
// branches report both arms: the speculative semantics fetches either
// guess regardless of the condition. Calls report both the callee
// entry and the return point, covering the architectural return path.
func (in Instr) StaticSuccessors(dst []Addr) ([]Addr, bool) {
	switch in.Kind {
	case KOp, KLoad, KStore, KFence:
		return append(dst, in.Next), true
	case KBr:
		return append(dst, in.True, in.False), true
	case KCall:
		return append(dst, in.Callee, in.RetPt), true
	case KJmpi:
		if len(in.Args) == 1 && !in.Args[0].IsReg {
			return append(dst, in.Args[0].Imm.W), true
		}
		return dst, false
	case KRet:
		return dst, false
	}
	return dst, true
}

// String renders the instruction in the paper's notation.
func (in Instr) String() string {
	switch in.Kind {
	case KOp:
		return fmt.Sprintf("(%s = op(%s, %s, %d))", RegName(in.Dst), in.Op, operands(in.Args), in.Next)
	case KBr:
		return fmt.Sprintf("br(%s, %s, %d, %d)", in.Op, operands(in.Args), in.True, in.False)
	case KLoad:
		return fmt.Sprintf("(%s = load(%s, %d))", RegName(in.Dst), operands(in.Args), in.Next)
	case KStore:
		return fmt.Sprintf("store(%s, %s, %d)", in.Src, operands(in.Args), in.Next)
	case KJmpi:
		return fmt.Sprintf("jmpi(%s)", operands(in.Args))
	case KCall:
		return fmt.Sprintf("call(%d, %d)", in.Callee, in.RetPt)
	case KRet:
		return "ret"
	case KFence:
		return fmt.Sprintf("fence %d", in.Next)
	}
	return "<invalid>"
}

func operands(args []Operand) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// RegName renders a register in assembly syntax. Registers 0–25 print
// as ra…rz; the two conventional registers of Appendix A print as rsp
// and rtmp; everything else as r<N>.
func RegName(r Reg) string {
	switch {
	case r == mem.RMSK:
		return "rmsk"
	case r == mem.RSP:
		return "rsp"
	case r == mem.RTMP:
		return "rtmp"
	case r < 26:
		return "r" + string(rune('a'+r))
	default:
		return fmt.Sprintf("r%d", uint16(r))
	}
}
