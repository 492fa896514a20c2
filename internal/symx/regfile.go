package symx

import (
	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

// RegFile is a symbolic register file ρ : R ⇀ Expr on the same flat
// copy-on-write cell file as the concrete mem.RegisterFile: Clone is
// O(1) and shares the cells, the first write after a fork copies them,
// and an order-independent hash sum over the mapped registers is
// maintained incrementally once fingerprinting starts. Unmapped
// registers are simply absent (ok == false); the symbolic machine
// supplies its own public-zero default.
type RegFile struct {
	f      mem.CellFile[Expr]
	sum    uint64
	hashed bool
}

// NewRegFile returns an empty symbolic register file.
func NewRegFile() *RegFile { return &RegFile{} }

// Read returns ρ(r), if mapped.
func (f *RegFile) Read(r isa.Reg) (Expr, bool) {
	return f.f.Lookup(r)
}

// Write sets ρ(r) = e.
func (f *RegFile) Write(r isa.Reg, e Expr) {
	old, existed := f.f.Set(r, e)
	if f.hashed {
		if existed {
			f.sum -= chainCellHash(uint64(r), old)
		}
		f.sum += chainCellHash(uint64(r), e)
	}
}

// Clone returns an independent copy in O(1).
func (f *RegFile) Clone() *RegFile {
	return &RegFile{f: f.f.Fork(), sum: f.sum, hashed: f.hashed}
}

// Len returns the number of mapped registers.
func (f *RegFile) Len() int { return f.f.Len() }

// HashSum folds the register file into an order-independent 64-bit
// sum over structural expression fingerprints; the first call
// activates incremental maintenance, like Memory.HashSum.
func (f *RegFile) HashSum() uint64 {
	if !f.hashed {
		f.hashed = true
		f.sum = 0
		for _, c := range f.f.Cells() {
			f.sum += chainCellHash(uint64(c.R), c.Val)
		}
	}
	return f.sum
}
