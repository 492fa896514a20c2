package spectre

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
	"pitchfork/internal/symx"
)

// This file defines the builder wire form: a canonical, versioned JSON
// encoding of a Program — instructions, data image, symbol tables,
// register seeds, and symbolic bindings — implemented as
// MarshalJSON/UnmarshalJSON so a built Program travels over the
// analysis service's wire exactly like CTL source does. The encoding
// is canonical (all map-derived sections are sorted, all fields are
// rendered deterministically), which makes it double as the input of
// Program.Fingerprint: equal programs produce byte-equal encodings,
// hence equal fingerprints.

// programWireVersion tags the encoding; UnmarshalJSON rejects versions
// it does not understand rather than guessing.
const programWireVersion = 1

// fingerprintDomain separates program fingerprints from any other
// sha256 use; bumping it (or programWireVersion) deliberately rotates
// every cache key, which is why both are pinned by
// spectre/stability_test.go.
const fingerprintDomain = "spectre-program-v1\x00"

// wireLabel is a security label on the wire: 0 (pub) or 1 (sec), the
// two points of the lattice. It encodes as the bare number; decoding
// rejects any other value, which no checker gives a meaning.
type wireLabel uint64

// UnmarshalJSON implements json.Unmarshaler.
func (l *wireLabel) UnmarshalJSON(data []byte) error {
	var n uint64
	if err := json.Unmarshal(data, &n); err != nil {
		return err
	}
	if n > uint64(mem.Secret) {
		return fmt.Errorf("label %d is neither 0 (pub) nor 1 (sec)", n)
	}
	*l = wireLabel(n)
	return nil
}

type wireOperand struct {
	// Reg is set for register operands; W/L carry the labeled
	// immediate otherwise.
	Reg *uint16   `json:"reg,omitempty"`
	W   uint64    `json:"w,omitempty"`
	L   wireLabel `json:"l,omitempty"`
}

type wireInstr struct {
	PC     uint64        `json:"pc"`
	Kind   uint8         `json:"kind"`
	Dst    uint16        `json:"dst,omitempty"`
	Op     uint8         `json:"op,omitempty"`
	Args   []wireOperand `json:"args,omitempty"`
	Src    *wireOperand  `json:"src,omitempty"`
	True   uint64        `json:"true,omitempty"`
	False  uint64        `json:"false,omitempty"`
	Next   uint64        `json:"next,omitempty"`
	Callee uint64        `json:"callee,omitempty"`
	RetPt  uint64        `json:"retPt,omitempty"`
}

type wireDatum struct {
	A uint64    `json:"a"`
	W uint64    `json:"w,omitempty"`
	L wireLabel `json:"l,omitempty"`
}

type wireSymbol struct {
	N string `json:"n"`
	A uint64 `json:"a"`
}

type wireRegSeed struct {
	R uint16    `json:"r"`
	W uint64    `json:"w,omitempty"`
	L wireLabel `json:"l,omitempty"`
}

type wireSymReg struct {
	R uint16    `json:"r"`
	N string    `json:"n"`
	L wireLabel `json:"l,omitempty"`
}

type wireSymMem struct {
	A uint64    `json:"a"`
	N string    `json:"n"`
	L wireLabel `json:"l,omitempty"`
}

type programWire struct {
	Version int           `json:"version"`
	Entry   uint64        `json:"entry"`
	Instrs  []wireInstr   `json:"instrs"`
	Data    []wireDatum   `json:"data,omitempty"`
	Symbols []wireSymbol  `json:"symbols,omitempty"`
	Regs    []wireRegSeed `json:"regs,omitempty"`
	SymRegs []wireSymReg  `json:"symRegs,omitempty"`
	SymMem  []wireSymMem  `json:"symMem,omitempty"`
	Globals []wireSymbol  `json:"globals,omitempty"`
	Funcs   []wireSymbol  `json:"funcs,omitempty"`
}

func wireOperandOf(o isa.Operand) wireOperand {
	if o.IsReg {
		r := uint16(o.Reg)
		return wireOperand{Reg: &r}
	}
	return wireOperand{W: o.Imm.W, L: wireLabel(o.Imm.L)}
}

func (w wireOperand) operand() isa.Operand {
	if w.Reg != nil {
		return isa.R(mem.Reg(*w.Reg))
	}
	return isa.Imm(mem.V(w.W, mem.Label(w.L)))
}

func sortedSymbols(m map[string]uint64) []wireSymbol {
	if len(m) == 0 {
		return nil
	}
	out := make([]wireSymbol, 0, len(m))
	for n, a := range m {
		out = append(out, wireSymbol{N: n, A: a})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].N < out[j].N })
	return out
}

// wire lowers the program into its canonical wire value.
func (p *Program) wire() (*programWire, error) {
	w := &programWire{Version: programWireVersion, Entry: p.prog.Entry}
	for _, pc := range p.prog.Points() {
		in, _ := p.prog.At(pc)
		wi := wireInstr{
			PC:     pc,
			Kind:   uint8(in.Kind),
			Dst:    uint16(in.Dst),
			Op:     uint8(in.Op),
			True:   in.True,
			False:  in.False,
			Next:   in.Next,
			Callee: in.Callee,
			RetPt:  in.RetPt,
		}
		for _, a := range in.Args {
			wi.Args = append(wi.Args, wireOperandOf(a))
		}
		if in.Kind == isa.KStore {
			src := wireOperandOf(in.Src)
			wi.Src = &src
		}
		w.Instrs = append(w.Instrs, wi)
	}
	if w.Instrs == nil {
		w.Instrs = []wireInstr{}
	}
	for a, v := range p.prog.Data {
		w.Data = append(w.Data, wireDatum{A: a, W: v.W, L: wireLabel(v.L)})
	}
	sort.Slice(w.Data, func(i, j int) bool { return w.Data[i].A < w.Data[j].A })
	w.Symbols = sortedSymbols(p.prog.Symbols)
	for r, v := range p.regs {
		w.Regs = append(w.Regs, wireRegSeed{R: uint16(r), W: v.W, L: wireLabel(v.L)})
	}
	sort.Slice(w.Regs, func(i, j int) bool { return w.Regs[i].R < w.Regs[j].R })
	for r, e := range p.symRegs {
		v, ok := e.(symx.Var)
		if !ok {
			return nil, fmt.Errorf("spectre: register %d: non-variable symbolic binding cannot be serialized", r)
		}
		w.SymRegs = append(w.SymRegs, wireSymReg{R: uint16(r), N: v.Name, L: wireLabel(v.L)})
	}
	sort.Slice(w.SymRegs, func(i, j int) bool { return w.SymRegs[i].R < w.SymRegs[j].R })
	for a, e := range p.symMem {
		v, ok := e.(symx.Var)
		if !ok {
			return nil, fmt.Errorf("spectre: memory %d: non-variable symbolic binding cannot be serialized", a)
		}
		w.SymMem = append(w.SymMem, wireSymMem{A: a, N: v.Name, L: wireLabel(v.L)})
	}
	sort.Slice(w.SymMem, func(i, j int) bool { return w.SymMem[i].A < w.SymMem[j].A })
	w.Globals = sortedSymbols(p.globals)
	w.Funcs = sortedSymbols(p.funcs)
	return w, nil
}

// MarshalJSON encodes the program in the canonical builder wire form:
// a versioned JSON document carrying instructions, the data image,
// symbol tables, register seeds, and symbolic bindings. The encoding
// is deterministic — equal programs marshal to equal bytes — and
// round-trips through UnmarshalJSON. Symbolic bindings must be the
// plain named variables the builder's Symbolic* methods install (the
// only kind any exported constructor produces).
func (p *Program) MarshalJSON() ([]byte, error) {
	w, err := p.wire()
	if err != nil {
		return nil, err
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the builder wire form produced by MarshalJSON,
// validating the program like ProgramBuilder.Build does. Unknown wire
// versions, and labels other than 0 (pub) and 1 (sec), are rejected.
func (p *Program) UnmarshalJSON(data []byte) error {
	var w programWire
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("spectre: program wire form: %w", err)
	}
	if w.Version != programWireVersion {
		return fmt.Errorf("spectre: unsupported program wire version %d (want %d)", w.Version, programWireVersion)
	}
	prog := isa.NewProgram(w.Entry)
	for _, wi := range w.Instrs {
		in := isa.Instr{
			Kind:   isa.Kind(wi.Kind),
			Dst:    mem.Reg(wi.Dst),
			Op:     isa.Opcode(wi.Op),
			True:   wi.True,
			False:  wi.False,
			Next:   wi.Next,
			Callee: wi.Callee,
			RetPt:  wi.RetPt,
		}
		for _, a := range wi.Args {
			in.Args = append(in.Args, a.operand())
		}
		if wi.Src != nil {
			in.Src = wi.Src.operand()
		}
		prog.Add(wi.PC, in)
	}
	for _, d := range w.Data {
		prog.SetData(d.A, mem.V(d.W, mem.Label(d.L)))
	}
	for _, s := range w.Symbols {
		prog.Define(s.N, s.A)
	}
	if err := prog.Validate(); err != nil {
		return fmt.Errorf("spectre: program wire form: %w", err)
	}
	q := Program{
		prog:    prog,
		regs:    make(map[mem.Reg]mem.Value, len(w.Regs)),
		symRegs: make(map[mem.Reg]symx.Expr, len(w.SymRegs)),
		symMem:  make(map[mem.Word]symx.Expr, len(w.SymMem)),
	}
	for _, r := range w.Regs {
		q.regs[mem.Reg(r.R)] = mem.V(r.W, mem.Label(r.L))
	}
	for _, r := range w.SymRegs {
		q.symRegs[mem.Reg(r.R)] = symx.Var{Name: r.N, L: mem.Label(r.L)}
	}
	for _, m := range w.SymMem {
		q.symMem[m.A] = symx.Var{Name: m.N, L: mem.Label(m.L)}
	}
	if len(w.Globals) > 0 {
		q.globals = make(map[string]Word, len(w.Globals))
		for _, s := range w.Globals {
			q.globals[s.N] = s.A
		}
	}
	if len(w.Funcs) > 0 {
		q.funcs = make(map[string]Addr, len(w.Funcs))
		for _, s := range w.Funcs {
			q.funcs[s.N] = s.A
		}
	}
	*p = q
	return nil
}

// Fingerprint returns the program's content hash: a sha256 hex digest
// over the canonical wire encoding — instructions, entry point, data
// image, symbol tables, register seeds, and symbolic bindings. It
// covers everything that can influence an analysis verdict (and,
// conservatively, the name tables, which cannot), so two programs with
// equal fingerprints produce byte-identical reports under equal
// Configs. That is the contract the serving layer's verdict cache is
// keyed on, which is why the digest is stability-pinned
// (spectre/stability_test.go): it may only rotate with a deliberate
// wire-version bump, never silently.
func (p *Program) Fingerprint() string {
	w, err := p.wire()
	if err != nil {
		// Unreachable through any exported constructor: builders, CTL
		// compilation, and the gallery only install named-variable
		// bindings, the one kind wire() refuses to serialize.
		panic(fmt.Sprintf("spectre: Fingerprint: %v", err))
	}
	raw, err := json.Marshal(w)
	if err != nil {
		panic(fmt.Sprintf("spectre: Fingerprint: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(fingerprintDomain))
	h.Write(raw)
	return hex.EncodeToString(h.Sum(nil))
}
