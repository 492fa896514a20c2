package isa

import (
	"fmt"

	"pitchfork/internal/mem"
)

// Opcode identifies an arithmetic or boolean operator. The paper keeps
// the operator set abstract ("op specifies opcode"); this set is the
// one the CTL compiler targets and is rich enough for the case studies.
// All operators are total: division and remainder by zero yield zero,
// shifts take their count modulo 64.
type Opcode uint8

const (
	OpAdd    Opcode = iota // v0 + v1 + …
	OpSub                  // v0 - v1
	OpMul                  // v0 * v1
	OpDiv                  // v0 / v1 (unsigned; x/0 = 0)
	OpMod                  // v0 % v1 (unsigned; x%0 = 0)
	OpAnd                  // bitwise and
	OpOr                   // bitwise or
	OpXor                  // bitwise xor
	OpShl                  // v0 << (v1 mod 64)
	OpShr                  // v0 >> (v1 mod 64), logical
	OpSar                  // v0 >> (v1 mod 64), arithmetic
	OpNot                  // bitwise complement of v0
	OpNeg                  // two's complement negation of v0
	OpMov                  // identity on v0
	OpEq                   // v0 == v1
	OpNe                   // v0 != v1
	OpLt                   // v0 < v1, unsigned
	OpLe                   // v0 <= v1, unsigned
	OpGt                   // v0 > v1, unsigned
	OpGe                   // v0 >= v1, unsigned
	OpSlt                  // v0 < v1, signed
	OpSle                  // v0 <= v1, signed
	OpSgt                  // v0 > v1, signed
	OpSge                  // v0 >= v1, signed
	OpSelect               // v0 != 0 ? v1 : v2 (constant-time selection)
	OpSucc                 // successor stack slot: v0 - 1 (stack grows down)
	OpPred                 // predecessor stack slot: v0 + 1
	NumOpcodes
)

var opcodeNames = [NumOpcodes]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpSar: "sar", OpNot: "not", OpNeg: "neg", OpMov: "mov",
	OpEq: "eq", OpNe: "ne",
	OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpSlt: "slt", OpSle: "sle", OpSgt: "sgt", OpSge: "sge",
	OpSelect: "select", OpSucc: "succ", OpPred: "pred",
}

// String returns the mnemonic.
func (op Opcode) String() string {
	if op < NumOpcodes {
		return opcodeNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Arity returns the number of operands the opcode consumes, or -1 for
// variadic opcodes (OpAdd accepts 1..n operands and sums them, which is
// what the figures' [40, ra]-style address lists rely on).
func (op Opcode) Arity() int {
	switch op {
	case OpAdd:
		return -1
	case OpNot, OpNeg, OpMov, OpSucc, OpPred:
		return 1
	case OpSelect:
		return 3
	default:
		return 2
	}
}

// IsComparison reports whether the opcode yields a boolean (0/1) word.
func (op Opcode) IsComparison() bool {
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpSlt, OpSle, OpSgt, OpSge:
		return true
	}
	return false
}

func b2w(b bool) mem.Word {
	if b {
		return 1
	}
	return 0
}

// Eval implements the evaluation function J·K over labeled values. The
// result label is the join of all operand labels (for OpSelect the
// condition's label taints the result, which is exactly why FaCT-style
// selection is constant-time but not label-lowering).
func Eval(op Opcode, args []mem.Value) (mem.Value, error) {
	if a := op.Arity(); a >= 0 && len(args) != a {
		return mem.Value{}, fmt.Errorf("isa: %s expects %d operands, got %d", op, a, len(args))
	} else if a < 0 && len(args) == 0 {
		return mem.Value{}, fmt.Errorf("isa: %s expects at least 1 operand", op)
	}
	label := mem.Public
	for _, v := range args {
		label = label.Join(v.L)
	}
	var w mem.Word
	switch op {
	case OpAdd:
		for _, v := range args {
			w += v.W
		}
	case OpSub:
		w = args[0].W - args[1].W
	case OpMul:
		w = args[0].W * args[1].W
	case OpDiv:
		if args[1].W != 0 {
			w = args[0].W / args[1].W
		}
	case OpMod:
		if args[1].W != 0 {
			w = args[0].W % args[1].W
		}
	case OpAnd:
		w = args[0].W & args[1].W
	case OpOr:
		w = args[0].W | args[1].W
	case OpXor:
		w = args[0].W ^ args[1].W
	case OpShl:
		w = args[0].W << (args[1].W & 63)
	case OpShr:
		w = args[0].W >> (args[1].W & 63)
	case OpSar:
		w = mem.Word(int64(args[0].W) >> (args[1].W & 63))
	case OpNot:
		w = ^args[0].W
	case OpNeg:
		w = -args[0].W
	case OpMov:
		w = args[0].W
	case OpEq:
		w = b2w(args[0].W == args[1].W)
	case OpNe:
		w = b2w(args[0].W != args[1].W)
	case OpLt:
		w = b2w(args[0].W < args[1].W)
	case OpLe:
		w = b2w(args[0].W <= args[1].W)
	case OpGt:
		w = b2w(args[0].W > args[1].W)
	case OpGe:
		w = b2w(args[0].W >= args[1].W)
	case OpSlt:
		w = b2w(int64(args[0].W) < int64(args[1].W))
	case OpSle:
		w = b2w(int64(args[0].W) <= int64(args[1].W))
	case OpSgt:
		w = b2w(int64(args[0].W) > int64(args[1].W))
	case OpSge:
		w = b2w(int64(args[0].W) >= int64(args[1].W))
	case OpSelect:
		if args[0].W != 0 {
			w = args[1].W
		} else {
			w = args[2].W
		}
	case OpSucc:
		w = args[0].W - 1
	case OpPred:
		w = args[0].W + 1
	default:
		return mem.Value{}, fmt.Errorf("isa: unknown opcode %d", uint8(op))
	}
	return mem.V(w, label), nil
}

// EvalAddr computes the target address of a load, store or indirect
// jump: the abstract address operator Jaddr(v⃗)K of §3.4 instantiated
// as the sum of all operands (the "simple addressing mode" the figures
// use, where [40, ra] means 40+ra), with the joined label ℓa = ⊔ℓ⃗.
func EvalAddr(args []mem.Value) (mem.Value, error) {
	if len(args) == 0 {
		return mem.Value{}, fmt.Errorf("isa: addr of empty operand list")
	}
	label := mem.Public
	var w mem.Word
	for _, v := range args {
		label = label.Join(v.L)
		w += v.W
	}
	return mem.V(w, label), nil
}
