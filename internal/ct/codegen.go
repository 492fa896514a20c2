package ct

import (
	"fmt"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

// Mode selects the backend.
type Mode uint8

const (
	// ModeC compiles all control flow to branches, like the C
	// implementations of the paper's case studies.
	ModeC Mode = iota
	// ModeFaCT linearizes secret-condition branches into constant-time
	// selects and rejects secret-dependent loops and memory indices,
	// reproducing the FaCT compiler's transformation.
	ModeFaCT
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeFaCT {
		return "fact"
	}
	return "c"
}

// Memory layout constants: globals from GlobalBase, the call stack
// descending from StackTop.
const (
	GlobalBase isa.Addr = 0x1000
	StackTop   isa.Addr = 0x8FFF
	stackWords          = 256
)

// Compiled is a compilation result.
type Compiled struct {
	Prog       *isa.Program
	Mode       Mode
	GlobalAddr map[string]isa.Addr
	FuncEntry  map[string]isa.Addr
	RetReg     map[string]isa.Reg
	// LocalReg maps function → variable/parameter → register; exposed
	// so post-compilation passes (register coalescing, binary-level
	// analyses) can locate variables in the generated code.
	LocalReg map[string]map[string]isa.Reg
}

// Compile parses, checks, and compiles a CTL source under the mode.
func Compile(src string, mode Mode) (c *Compiled, err error) {
	ast, err := Parse(src)
	if err != nil {
		return nil, err
	}
	lb, err := analyze(ast)
	if err != nil {
		return nil, err
	}
	cg := &codegen{
		ast:     ast,
		lb:      lb,
		mode:    mode,
		regs:    make(map[string]map[string]isa.Reg),
		retRegs: make(map[string]isa.Reg),
		gaddr:   make(map[string]isa.Addr),
		entries: make(map[string]isa.Addr),
		nextReg: 10,
	}
	defer func() {
		if r := recover(); r != nil {
			if r != errRegisterSpace {
				panic(r)
			}
			c, err = nil, errRegisterSpace
		}
	}()
	return cg.run()
}

// codegen holds backend state. Register allocation is global and
// never reuses registers across variables, which rules out recursion
// (functions have a single activation's worth of registers); the
// in-memory call stack still carries return addresses, so the
// speculative return machinery behaves exactly like the paper's.
type codegen struct {
	ast     *Program
	lb      *labels
	mode    Mode
	instrs  []isa.Instr // instruction at program point i+1
	regs    map[string]map[string]isa.Reg
	retRegs map[string]isa.Reg
	gaddr   map[string]isa.Addr
	entries map[string]isa.Addr
	nextReg isa.Reg
	curFn   *FuncDecl
	// callPatches maps instruction indices to callee names, fixed up
	// once every function has an entry point.
	callPatches map[int]string
}

func (cg *codegen) freshReg() isa.Reg {
	r := cg.nextReg
	cg.nextReg++
	if cg.nextReg >= 0xFF00 {
		panic(errRegisterSpace)
	}
	return r
}

// errRegisterSpace aborts code generation from deep inside the emitter
// when a program needs more registers than the ISA names; Compile turns
// it back into an ordinary error.
var errRegisterSpace = &Error{Msg: "register space exhausted"}

func (cg *codegen) here() isa.Addr { return isa.Addr(len(cg.instrs) + 1) }

func (cg *codegen) emit(in isa.Instr) int {
	cg.instrs = append(cg.instrs, in)
	return len(cg.instrs) - 1
}

// run drives compilation: layout globals, emit the entry stub, then
// every function, then patch calls and branch placeholders.
func (cg *codegen) run() (*Compiled, error) {
	cg.callPatches = make(map[int]string)

	// Global layout: the globals must fit below the call stack, which
	// also bounds the data image the program carries.
	addr := GlobalBase
	for _, g := range cg.ast.Globals {
		if g.Size > uint64(StackTop-stackWords+1-addr) {
			return nil, &Error{Line: g.Line, Msg: "global " + g.Name + " does not fit below the call stack"}
		}
		cg.gaddr[g.Name] = addr
		addr += isa.Addr(g.Size)
	}

	// Entry stub: initialize the stack pointer, call main, halt.
	// Program point 0 never holds an instruction, so returning there
	// halts the machine.
	cg.emit(isa.Op(mem.RSP, isa.OpMov, []isa.Operand{isa.ImmW(mem.Word(StackTop))}, 2))
	callIdx := cg.emit(isa.Call(0, 0)) // callee patched below
	cg.callPatches[callIdx] = "main"

	// Preallocate parameter and return registers so calls to
	// later-declared functions resolve.
	for _, f := range cg.ast.Funcs {
		cg.regs[f.Name] = make(map[string]isa.Reg)
		for _, p := range f.Params {
			cg.regs[f.Name][p.Name] = cg.freshReg()
		}
		cg.retRegs[f.Name] = cg.freshReg()
	}

	// Functions.
	for _, f := range cg.ast.Funcs {
		cg.curFn = f
		cg.entries[f.Name] = cg.here()
		if err := cg.stmts(f.Body, nil); err != nil {
			return nil, err
		}
		cg.emit(isa.Ret())
	}

	// Patch call targets.
	for idx, name := range cg.callPatches {
		entry, ok := cg.entries[name]
		if !ok {
			return nil, &Error{Msg: "undefined function " + name}
		}
		cg.instrs[idx].Callee = entry
	}

	// Assemble the program.
	prog := isa.NewProgram(1)
	for i, in := range cg.instrs {
		prog.Add(isa.Addr(i+1), in)
	}
	for _, g := range cg.ast.Globals {
		base := cg.gaddr[g.Name]
		for i := uint64(0); i < g.Size; i++ {
			w := mem.Word(0)
			if i < uint64(len(g.Init)) {
				w = g.Init[i]
			}
			prog.SetData(base+isa.Addr(i), mem.V(w, g.Label))
		}
		prog.Define(g.Name, base)
	}
	for i := isa.Addr(0); i < stackWords; i++ {
		prog.SetData(StackTop-i, mem.Pub(0))
	}
	for name, entry := range cg.entries {
		prog.Define(name, entry)
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("ct: internal: generated invalid program: %w", err)
	}
	return &Compiled{
		Prog:       prog,
		Mode:       cg.mode,
		GlobalAddr: cg.gaddr,
		FuncEntry:  cg.entries,
		RetReg:     cg.retRegs,
		LocalReg:   cg.regs,
	}, nil
}

// secretMask is the linearization context inside ModeFaCT secret
// branches: assignments become selects guarded by cond.
type secretMask struct {
	cond isa.Operand // nonzero ⇔ the guarded branch is taken
}

func (cg *codegen) stmts(body []Stmt, mask *secretMask) error {
	for _, st := range body {
		if err := cg.stmt(st, mask); err != nil {
			return err
		}
	}
	return nil
}

func (cg *codegen) stmt(st Stmt, mask *secretMask) error {
	switch n := st.(type) {
	case *VarStmt:
		val, err := cg.expr(n.Init)
		if err != nil {
			return err
		}
		r, exists := cg.regs[cg.curFn.Name][n.Name]
		if !exists {
			r = cg.freshReg()
			cg.regs[cg.curFn.Name][n.Name] = r
		}
		// Declarations under a secret mask execute unconditionally:
		// the variable is dead outside the (textual) branch, and every
		// observable effect of its uses is select-guarded downstream.
		cg.emit(isa.Op(r, isa.OpMov, []isa.Operand{val}, cg.here()+1))
		return nil

	case *AssignStmt:
		val, err := cg.expr(n.Val)
		if err != nil {
			return err
		}
		if r, isLocal := cg.regs[cg.curFn.Name][n.Name]; isLocal {
			if mask != nil {
				cg.emit(isa.Op(r, isa.OpSelect, []isa.Operand{mask.cond, val, isa.R(r)}, cg.here()+1))
			} else {
				cg.emit(isa.Op(r, isa.OpMov, []isa.Operand{val}, cg.here()+1))
			}
			return nil
		}
		a := cg.gaddr[n.Name]
		if mask != nil {
			cur := cg.freshReg()
			cg.emit(isa.Load(cur, []isa.Operand{isa.ImmW(mem.Word(a))}, cg.here()+1))
			sel := cg.freshReg()
			cg.emit(isa.Op(sel, isa.OpSelect, []isa.Operand{mask.cond, val, isa.R(cur)}, cg.here()+1))
			val = isa.R(sel)
		}
		cg.emit(isa.Store(val, []isa.Operand{isa.ImmW(mem.Word(a))}, cg.here()+1))
		return nil

	case *StoreStmt:
		if cg.mode == ModeFaCT {
			if l, _ := cg.exprLabel(n.Idx); l.IsSecret() {
				return &Error{Line: n.Line, Msg: "fact mode: secret array index in store to " + n.Arr}
			}
		}
		idx, err := cg.expr(n.Idx)
		if err != nil {
			return err
		}
		val, err := cg.expr(n.Val)
		if err != nil {
			return err
		}
		base := isa.ImmW(mem.Word(cg.gaddr[n.Arr]))
		if mask != nil {
			// Constant-time read-modify-write: the same cell is
			// accessed whichever way the secret goes.
			cur := cg.freshReg()
			cg.emit(isa.Load(cur, []isa.Operand{base, idx}, cg.here()+1))
			sel := cg.freshReg()
			cg.emit(isa.Op(sel, isa.OpSelect, []isa.Operand{mask.cond, val, isa.R(cur)}, cg.here()+1))
			val = isa.R(sel)
		}
		cg.emit(isa.Store(val, []isa.Operand{base, idx}, cg.here()+1))
		return nil

	case *IfStmt:
		condLabel, _ := cg.exprLabel(n.Cond)
		if cg.mode == ModeFaCT && (condLabel.IsSecret() || mask != nil) {
			return cg.linearizeIf(n, mask)
		}
		return cg.branchIf(n, mask)

	case *WhileStmt:
		if cg.mode == ModeFaCT {
			if l, _ := cg.exprLabel(n.Cond); l.IsSecret() {
				return &Error{Line: n.Line, Msg: "fact mode: secret loop condition"}
			}
			if mask != nil {
				return &Error{Line: n.Line, Msg: "fact mode: loop under secret branch"}
			}
		}
		head := cg.here()
		cond, err := cg.expr(n.Cond)
		if err != nil {
			return err
		}
		brIdx := cg.emit(isa.Br(isa.OpNe, []isa.Operand{cond, isa.ImmW(0)}, 0, 0))
		cg.instrs[brIdx].True = cg.here()
		if err := cg.stmts(n.Body, mask); err != nil {
			return err
		}
		// Unconditional back edge.
		cg.emit(isa.Br(isa.OpEq, []isa.Operand{isa.ImmW(0), isa.ImmW(0)}, head, head))
		cg.instrs[brIdx].False = cg.here()
		return nil

	case *ReturnStmt:
		if cg.mode == ModeFaCT && mask != nil {
			return &Error{Line: n.Line, Msg: "fact mode: return under secret branch"}
		}
		if n.Val != nil {
			val, err := cg.expr(n.Val)
			if err != nil {
				return err
			}
			cg.emit(isa.Op(cg.retRegs[cg.curFn.Name], isa.OpMov, []isa.Operand{val}, cg.here()+1))
		}
		cg.emit(isa.Ret())
		return nil

	case *ExprStmt:
		if cg.mode == ModeFaCT && mask != nil {
			return &Error{Line: n.Line, Msg: "fact mode: call under secret branch"}
		}
		_, err := cg.expr(n.X)
		return err

	case *FenceStmt:
		cg.emit(isa.Fence(cg.here() + 1))
		return nil
	}
	return &Error{Msg: fmt.Sprintf("unknown statement %T", st)}
}

// branchIf compiles an if with real branches (ModeC always; ModeFaCT
// for public conditions).
func (cg *codegen) branchIf(n *IfStmt, mask *secretMask) error {
	cond, err := cg.expr(n.Cond)
	if err != nil {
		return err
	}
	brIdx := cg.emit(isa.Br(isa.OpNe, []isa.Operand{cond, isa.ImmW(0)}, 0, 0))
	cg.instrs[brIdx].True = cg.here()
	if err := cg.stmts(n.Then, mask); err != nil {
		return err
	}
	if len(n.Else) == 0 {
		cg.instrs[brIdx].False = cg.here()
		return nil
	}
	// Jump over the else arm.
	skipIdx := cg.emit(isa.Br(isa.OpEq, []isa.Operand{isa.ImmW(0), isa.ImmW(0)}, 0, 0))
	cg.instrs[brIdx].False = cg.here()
	if err := cg.stmts(n.Else, mask); err != nil {
		return err
	}
	cg.instrs[skipIdx].True = cg.here()
	cg.instrs[skipIdx].False = cg.here()
	return nil
}

// linearizeIf compiles a secret-condition if into straight-line code:
// both arms execute, assignments are select-guarded — the FaCT
// transformation of Fig. 10.
func (cg *codegen) linearizeIf(n *IfStmt, outer *secretMask) error {
	cond, err := cg.expr(n.Cond)
	if err != nil {
		return err
	}
	// Normalize to 0/1 and conjoin with any outer mask.
	c := cg.freshReg()
	cg.emit(isa.Op(c, isa.OpNe, []isa.Operand{cond, isa.ImmW(0)}, cg.here()+1))
	if outer != nil {
		cg.emit(isa.Op(c, isa.OpAnd, []isa.Operand{isa.R(c), outer.cond}, cg.here()+1))
	}
	if err := cg.stmts(n.Then, &secretMask{cond: isa.R(c)}); err != nil {
		return err
	}
	if len(n.Else) == 0 {
		return nil
	}
	nc := cg.freshReg()
	cg.emit(isa.Op(nc, isa.OpEq, []isa.Operand{isa.R(c), isa.ImmW(0)}, cg.here()+1))
	if outer != nil {
		cg.emit(isa.Op(nc, isa.OpAnd, []isa.Operand{isa.R(nc), outer.cond}, cg.here()+1))
	}
	return cg.stmts(n.Else, &secretMask{cond: isa.R(nc)})
}

var binOps = map[string]isa.Opcode{
	"+": isa.OpAdd, "-": isa.OpSub, "*": isa.OpMul, "/": isa.OpDiv, "%": isa.OpMod,
	"&": isa.OpAnd, "|": isa.OpOr, "^": isa.OpXor, "<<": isa.OpShl, ">>": isa.OpShr,
	"<": isa.OpLt, "<=": isa.OpLe, ">": isa.OpGt, ">=": isa.OpGe,
	"==": isa.OpEq, "!=": isa.OpNe,
}

// expr emits code for an expression, returning the operand holding its
// value (a register or an immediate).
func (cg *codegen) expr(e Expr) (isa.Operand, error) {
	switch n := e.(type) {
	case *NumExpr:
		return isa.ImmW(n.Val), nil

	case *IdentExpr:
		if r, ok := cg.regs[cg.curFn.Name][n.Name]; ok {
			return isa.R(r), nil
		}
		a := cg.gaddr[n.Name]
		r := cg.freshReg()
		cg.emit(isa.Load(r, []isa.Operand{isa.ImmW(mem.Word(a))}, cg.here()+1))
		return isa.R(r), nil

	case *IndexExpr:
		if cg.mode == ModeFaCT {
			if l, _ := cg.exprLabel(n.Idx); l.IsSecret() {
				return isa.Operand{}, &Error{Line: n.Line, Msg: "fact mode: secret array index into " + n.Arr}
			}
		}
		idx, err := cg.expr(n.Idx)
		if err != nil {
			return isa.Operand{}, err
		}
		r := cg.freshReg()
		cg.emit(isa.Load(r, []isa.Operand{isa.ImmW(mem.Word(cg.gaddr[n.Arr])), idx}, cg.here()+1))
		return isa.R(r), nil

	case *BinExpr:
		switch n.Op {
		case "&&", "||":
			// Non-short-circuit boolean operators: both sides always
			// evaluate (CTL has no side-effecting expressions except
			// calls, which are statements in practice).
			x, err := cg.expr(n.X)
			if err != nil {
				return isa.Operand{}, err
			}
			y, err := cg.expr(n.Y)
			if err != nil {
				return isa.Operand{}, err
			}
			bx, by := cg.freshReg(), cg.freshReg()
			cg.emit(isa.Op(bx, isa.OpNe, []isa.Operand{x, isa.ImmW(0)}, cg.here()+1))
			cg.emit(isa.Op(by, isa.OpNe, []isa.Operand{y, isa.ImmW(0)}, cg.here()+1))
			r := cg.freshReg()
			op := isa.OpAnd
			if n.Op == "||" {
				op = isa.OpOr
			}
			cg.emit(isa.Op(r, op, []isa.Operand{isa.R(bx), isa.R(by)}, cg.here()+1))
			return isa.R(r), nil
		}
		op, ok := binOps[n.Op]
		if !ok {
			return isa.Operand{}, &Error{Line: n.Line, Msg: "unknown operator " + n.Op}
		}
		x, err := cg.expr(n.X)
		if err != nil {
			return isa.Operand{}, err
		}
		y, err := cg.expr(n.Y)
		if err != nil {
			return isa.Operand{}, err
		}
		r := cg.freshReg()
		cg.emit(isa.Op(r, op, []isa.Operand{x, y}, cg.here()+1))
		return isa.R(r), nil

	case *UnExpr:
		x, err := cg.expr(n.X)
		if err != nil {
			return isa.Operand{}, err
		}
		r := cg.freshReg()
		switch n.Op {
		case "-":
			cg.emit(isa.Op(r, isa.OpNeg, []isa.Operand{x}, cg.here()+1))
		case "~":
			cg.emit(isa.Op(r, isa.OpNot, []isa.Operand{x}, cg.here()+1))
		case "!":
			cg.emit(isa.Op(r, isa.OpEq, []isa.Operand{x, isa.ImmW(0)}, cg.here()+1))
		default:
			return isa.Operand{}, &Error{Line: n.Line, Msg: "unknown unary operator " + n.Op}
		}
		return isa.R(r), nil

	case *CallExpr:
		f := cg.lb.funcs[n.Name]
		// Evaluate arguments, then move them into the callee's
		// parameter registers.
		ops := make([]isa.Operand, len(n.Args))
		for i, a := range n.Args {
			o, err := cg.expr(a)
			if err != nil {
				return isa.Operand{}, err
			}
			ops[i] = o
		}
		for i, prm := range f.Params {
			cg.emit(isa.Op(cg.regs[n.Name][prm.Name], isa.OpMov, []isa.Operand{ops[i]}, cg.here()+1))
		}
		callIdx := cg.emit(isa.Call(0, cg.here()+1))
		cg.callPatches[callIdx] = n.Name
		// Copy the return value out immediately (the callee's return
		// register is clobbered by its next activation).
		r := cg.freshReg()
		cg.emit(isa.Op(r, isa.OpMov, []isa.Operand{isa.R(cg.retRegs[n.Name])}, cg.here()+1))
		return isa.R(r), nil
	}
	return isa.Operand{}, &Error{Msg: fmt.Sprintf("unknown expression %T", e)}
}

// exprLabel re-runs the analysis query for an expression in the
// current function (the fixpoint has already converged).
func (cg *codegen) exprLabel(e Expr) (mem.Label, error) {
	sc := &scanner{lb: cg.lb, fn: cg.curFn}
	return sc.expr(e)
}
