package mem

import "sort"

// HashSeed is an arbitrary non-zero starting state for hash chains
// (the FNV-1a 64-bit offset basis, kept for familiarity); shared with
// the machine fingerprint in internal/core.
const HashSeed uint64 = 14695981039346656037

// Mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// mixer used by the machine-state fingerprinting in internal/core and
// by the incremental cell-hash sums below.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// cellHash hashes one (key, value) cell. Cell hashes are combined with
// an order-independent sum, which lets Write maintain the whole
// container's hash incrementally: subtract the old cell, add the new.
func cellHash(key uint64, v Value) uint64 {
	h := Mix64(HashSeed ^ key)
	h = Mix64(h ^ v.W)
	return Mix64(h ^ uint64(v.L))
}

// ---------------------------------------------------------------------
// Memory
// ---------------------------------------------------------------------

// Memory is the labeled data memory µ : V ⇀ V of a configuration: a
// sparse, word-granular map from addresses to labeled values. Reads of
// unmapped addresses return a public zero: the machine is total over
// data addresses, like a zero-filled address space.
//
// The representation is copy-on-write (see CowMap): CloneTo is O(1),
// sharing a chain of frozen overlays with the original, and each fork
// pays only for the cells it writes afterwards. This is what makes
// exploration-tree forking O(changed-cells) instead of O(memory-size).
type Memory struct {
	m CowMap[Word, Value]
	// sum is the order-independent sum of cellHash over all mapped
	// cells — the O(1) memory half of the machine fingerprint, kept
	// by Write.
	sum uint64
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{} }

// Read returns µ(a); unmapped addresses read as Pub(0).
func (m *Memory) Read(a Word) Value {
	if v, ok := m.m.Lookup(a); ok {
		return v
	}
	return Pub(0)
}

// Write sets µ(a) = v.
func (m *Memory) Write(a Word, v Value) {
	old, existed := m.m.Set(a, v)
	if existed {
		m.sum -= cellHash(a, old)
	}
	m.sum += cellHash(a, v)
}

// HashSum returns the order-independent hash sum over all mapped
// cells. Memories with equal contents have equal sums regardless of
// write order.
func (m *Memory) HashSum() uint64 { return m.sum }

// Contains reports whether a is mapped.
func (m *Memory) Contains(a Word) bool {
	_, ok := m.m.Lookup(a)
	return ok
}

// Len returns the number of mapped cells.
func (m *Memory) Len() int { return m.m.Len() }

// Freeze moves every cell into a frozen layer, so that m can serve as
// a shared image: CloneTo then reads m without writing to it (a fork of
// an empty overlay on a chain shorter than MaxChainDepth changes
// nothing), and goroutines may clone it at once while nobody writes.
func (m *Memory) Freeze() { m.m.Fork() }

// CloneTo makes dst an independent copy in O(1), in storage the caller
// owns: the original's overlay is frozen into the shared chain, and
// both memories continue with empty private overlays. Step rules never
// mutate a shared layer, so the two copies cannot observe one
// another's subsequent writes.
func (m *Memory) CloneTo(dst *Memory) {
	*dst = Memory{m: m.m.Fork(), sum: m.sum}
}

// Addresses returns the mapped addresses in increasing order.
func (m *Memory) Addresses() []Word {
	out := m.m.Keys()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LowEquiv reports µ ≃pub µ′: the two memories agree on their public
// cells — same mapped domain, same labels everywhere, and equal words
// wherever the label is public. The comparison is allocation-free: it
// walks the receiver's layers and resolves both sides through lookup
// (keys shadowed across layers are simply compared more than once).
func (m *Memory) LowEquiv(o *Memory) bool {
	if m.m.Len() != o.m.Len() {
		return false
	}
	eq := true
	m.m.EachKey(func(a Word) bool {
		v, _ := m.m.Lookup(a)
		w, ok := o.m.Lookup(a)
		if !ok || v.L != w.L || (v.L.IsPublic() && v.W != w.W) {
			eq = false
			return false
		}
		return true
	})
	return eq
}

// Equal reports exact equality of the two memories (domain, words,
// labels). It implements the memory half of the ≈ equivalence used by
// the sequential-consistency theorems.
func (m *Memory) Equal(o *Memory) bool {
	if m.m.Len() != o.m.Len() {
		return false
	}
	eq := true
	m.m.EachKey(func(a Word) bool {
		v, _ := m.m.Lookup(a)
		if w, ok := o.m.Lookup(a); !ok || w != v {
			eq = false
			return false
		}
		return true
	})
	return eq
}

// ---------------------------------------------------------------------
// Register file
// ---------------------------------------------------------------------

// RegisterFile is the register map ρ : R ⇀ V. Register names are
// small integers; the assembler maps symbolic names (ra, rb, …, rsp,
// rtmp) onto them. The representation is the flat copy-on-write
// CellFile: CloneTo is O(1) and shares the cells, and the first write
// after a fork copies them.
type RegisterFile struct {
	f CellFile[Value]
	// sum mirrors Memory's: the order-independent hash of all mapped
	// registers, kept by Write.
	sum uint64
}

// Reg names a register.
type Reg uint16

// Conventional registers used by the call/return expansion of
// Appendix A and by the repair engine's hardening passes. RSP is the
// stack pointer; RTMP is the scratch register the ret expansion loads
// the return address into (repair-inserted code also uses it for
// transient address computations — its architectural value is never
// committed by the expansion, so the convention is compatible); RMSK
// is the speculation-predicate register the SLH-style mask pass
// maintains: all-ones on architectural paths, zero on mis-speculated
// ones. Source programs must not use RMSK — the mask pass refuses
// programs that do.
const (
	RMSK Reg = 0xFFFD
	RSP  Reg = 0xFFFE
	RTMP Reg = 0xFFFF
)

// NewRegisterFile returns an empty register file.
func NewRegisterFile() *RegisterFile {
	return &RegisterFile{}
}

// Read returns ρ(r); unmapped registers read as Pub(0), mirroring a
// zeroed register file at power-on.
func (f *RegisterFile) Read(r Reg) Value {
	if v, ok := f.f.Lookup(r); ok {
		return v
	}
	return Pub(0)
}

// Write sets ρ(r) = v.
func (f *RegisterFile) Write(r Reg, v Value) {
	old, existed := f.f.Set(r, v)
	if existed {
		f.sum -= cellHash(uint64(r), old)
	}
	f.sum += cellHash(uint64(r), v)
}

// HashSum returns the order-independent hash sum over all mapped
// registers.
func (f *RegisterFile) HashSum() uint64 { return f.sum }

// CloneTo makes dst an independent copy of the register file in O(1),
// in storage the caller owns: both sides share the cells and copy them
// on their next write.
func (f *RegisterFile) CloneTo(dst *RegisterFile) {
	*dst = RegisterFile{f: f.f.Fork(), sum: f.sum}
}

// Registers returns the mapped registers in increasing order.
func (f *RegisterFile) Registers() []Reg {
	cells := f.f.Cells()
	out := make([]Reg, len(cells))
	for k, c := range cells {
		out[k] = c.R
	}
	return out
}

// LowEquiv reports ρ ≃pub ρ′ over the union of both domains (an
// unmapped register is Pub(0), so it participates as a public zero).
func (f *RegisterFile) LowEquiv(o *RegisterFile) bool {
	return f.mergeAll(o, func(v, w Value) bool {
		return v.L == w.L && (!v.L.IsPublic() || v.W == w.W)
	})
}

// Equal reports exact equality over the union of both domains.
func (f *RegisterFile) Equal(o *RegisterFile) bool {
	return f.mergeAll(o, func(v, w Value) bool { return v == w })
}

// mergeAll walks the union of both files' registers in order and
// reports whether eq holds for every register's pair of values, an
// unmapped register reading as Pub(0).
func (f *RegisterFile) mergeAll(o *RegisterFile, eq func(v, w Value) bool) bool {
	a, b := f.f.Cells(), o.f.Cells()
	for len(a) > 0 || len(b) > 0 {
		v, w := Pub(0), Pub(0)
		switch {
		case len(b) == 0 || len(a) > 0 && a[0].R < b[0].R:
			v, a = a[0].Val, a[1:]
		case len(a) == 0 || b[0].R < a[0].R:
			w, b = b[0].Val, b[1:]
		default:
			v, w, a, b = a[0].Val, b[0].Val, a[1:], b[1:]
		}
		if !eq(v, w) {
			return false
		}
	}
	return true
}
