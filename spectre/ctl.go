package spectre

import (
	"fmt"

	"pitchfork/internal/core"
	"pitchfork/internal/ct"
	"pitchfork/internal/mem"
	"pitchfork/internal/symx"
)

// SourceMode selects the CTL compilation backend.
type SourceMode uint8

const (
	// ModeC compiles branchy, C-style code: secret-dependent
	// conditions become conditional branches.
	ModeC SourceMode = iota
	// ModeFaCT compiles constant-time selects in place of
	// secret-dependent branches, FaCT-style.
	ModeFaCT
)

// String names the mode ("c" or "fact").
func (m SourceMode) String() string {
	if m == ModeFaCT {
		return "fact"
	}
	return "c"
}

// ParseSourceMode resolves "c" or "fact"; convenient for flag values.
func ParseSourceMode(s string) (SourceMode, error) {
	switch s {
	case "c":
		return ModeC, nil
	case "fact":
		return ModeFaCT, nil
	}
	return 0, fmt.Errorf("spectre: unknown source mode %q (want \"c\" or \"fact\")", s)
}

// CompileCTL parses, checks, and compiles a CTL source unit under the
// given backend. Global-variable and function addresses are exposed
// through the returned Program's Globals and Lookup.
func CompileCTL(src string, mode SourceMode) (*Program, error) {
	cmode := ct.ModeC
	if mode == ModeFaCT {
		cmode = ct.ModeFaCT
	}
	comp, err := ct.Compile(src, cmode)
	if err != nil {
		return nil, fmt.Errorf("spectre: %w", err)
	}
	globals := make(map[string]Word, len(comp.GlobalAddr))
	for name, a := range comp.GlobalAddr {
		globals[name] = a
	}
	funcs := make(map[string]Addr, len(comp.FuncEntry))
	for name, a := range comp.FuncEntry {
		funcs[name] = a
	}
	return &Program{
		prog:    comp.Prog,
		regs:    make(map[mem.Reg]mem.Value),
		symRegs: make(map[mem.Reg]symx.Expr),
		symMem:  make(map[mem.Word]symx.Expr),
		globals: globals,
		funcs:   funcs,
	}, nil
}

// SymbolicGlobal rebinds a CTL global variable's cell to an
// unconstrained public symbolic input (the attacker-controlled values
// of the Kocher cases). It reports whether the global exists.
func (p *Program) SymbolicGlobal(name, varName string) bool {
	a, ok := p.globals[name]
	if !ok {
		return false
	}
	p.symMem[a] = symx.NewVar(varName, mem.Public)
	return true
}

// SequentialResult is the outcome of an in-order, non-speculative
// execution of a program.
type SequentialResult struct {
	// Trace is the observation trace of the sequential run; a
	// secret-labeled observation in it means the program is not even
	// sequentially constant-time.
	Trace Trace
	m     *core.Machine
}

// SecretFree reports whether the sequential trace is free of
// secret-labeled observations.
func (r *SequentialResult) SecretFree() bool { return r.Trace.SecretFree() }

// Read returns the final memory word at address a and whether it is
// secret-labeled.
func (r *SequentialResult) Read(a Word) (value Word, secret bool) {
	v := r.m.Mem.Read(a)
	return v.W, v.IsSecret()
}

// Sequential executes the program in order, with no speculation, for
// at most maxInstrs retired instructions — the baseline the paper's
// sequential constant-time property is stated over, and a convenient
// way to inspect a program's architectural results.
func (p *Program) Sequential(maxInstrs int) (*SequentialResult, error) {
	m := p.machine()
	_, trace, err := core.RunSequential(m, maxInstrs)
	if err != nil {
		return nil, fmt.Errorf("spectre: %w", err)
	}
	return &SequentialResult{Trace: traceOf(trace), m: m}, nil
}
