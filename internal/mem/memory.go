package mem

import (
	"fmt"
	"sort"
)

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
// unmapped addresses return a labeled zero by default (the machine is
// total over data addresses, like a zero-filled address space), unless
// the memory is constructed Strict, in which case they are errors —
// strict mode is what the test suites use to catch wild reads early.
//
// The representation is copy-on-write (see CowMap): Clone is O(1),
// sharing a chain of frozen overlays with the original, and each fork
// pays only for the cells it writes afterwards. This is what makes
// exploration-tree forking O(changed-cells) instead of O(memory-size).
type Memory struct {
	m      CowMap[Word, Value]
	strict bool
	// sum is the order-independent sum of cellHash over all mapped
	// cells — the O(1) memory half of the machine fingerprint. It is
	// computed lazily at the first HashSum call and maintained
	// incrementally by Write from then on (hashed tracks the mode), so
	// runs that never fingerprint pay nothing.
	sum    uint64
	hashed bool
}

// NewMemory returns an empty, non-strict memory.
func NewMemory() *Memory { return &Memory{} }

// NewStrictMemory returns an empty memory whose reads of unmapped
// addresses fail.
func NewStrictMemory() *Memory {
	return &Memory{strict: true}
}

// Strict reports whether unmapped reads are errors.
func (m *Memory) Strict() bool { return m.strict }

// Read returns µ(a). For non-strict memories, unmapped addresses read
// as Pub(0).
func (m *Memory) Read(a Word) (Value, error) {
	if v, ok := m.m.Lookup(a); ok {
		return v, nil
	}
	if m.strict {
		return Value{}, fmt.Errorf("mem: read of unmapped address %#x", a)
	}
	return Pub(0), nil
}

// Write sets µ(a) = v.
func (m *Memory) Write(a Word, v Value) {
	old, existed := m.m.Set(a, v)
	if m.hashed {
		if existed {
			m.sum -= cellHash(a, old)
		}
		m.sum += cellHash(a, v)
	}
}

// HashSum returns the order-independent hash sum over all mapped
// cells. Memories with equal contents have equal sums regardless of
// write order. The first call walks the cells once and switches the
// memory (and, via Clone, its descendants) to incremental maintenance.
func (m *Memory) HashSum() uint64 {
	if !m.hashed {
		m.hashed = true
		m.sum = 0
		m.m.FlatEach(func(a Word, v Value) {
			m.sum += cellHash(a, v)
		})
	}
	return m.sum
}

// Contains reports whether a is mapped.
func (m *Memory) Contains(a Word) bool {
	_, ok := m.m.Lookup(a)
	return ok
}

// Len returns the number of mapped cells.
func (m *Memory) Len() int { return m.m.Len() }

// Clone returns an independent copy in O(1): the original's overlay is
// frozen into the shared chain, and both memories continue with empty
// private overlays. Step rules never mutate a shared layer, so the two
// copies cannot observe one another's subsequent writes.
func (m *Memory) Clone() *Memory {
	return &Memory{m: m.m.Fork(), strict: m.strict, sum: m.sum, hashed: m.hashed}
}

// Addresses returns the mapped addresses in increasing order.
func (m *Memory) Addresses() []Word {
	out := m.m.Keys()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// WriteRegion maps len(vs) consecutive words starting at base.
func (m *Memory) WriteRegion(base Word, vs []Value) {
	for i, v := range vs {
		m.Write(base+Word(i), v)
	}
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
// rtmp) onto them. The representation is one flat slice of register
// cells sorted by register, searched by bisection, for every register
// number alike: a program's registers are few, so the whole file is a
// handful of cache lines. It is copy-on-write: Clone is O(1) and
// shares the slice, and the first write after a fork copies it.
type RegisterFile struct {
	cells []regCell
	// shared marks cells as possibly aliased by a clone; the next
	// Write copies it first.
	shared bool
	// sum and hashed mirror Memory: the lazily activated, then
	// incrementally maintained, order-independent hash of all mapped
	// registers.
	sum    uint64
	hashed bool
}

// regCell is one mapped register.
type regCell struct {
	r Reg
	v Value
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

// find returns the position of r in the sorted cells, or the position
// it would be inserted at, and whether it is mapped.
func (f *RegisterFile) find(r Reg) (int, bool) {
	lo, hi := 0, len(f.cells)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f.cells[mid].r < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(f.cells) && f.cells[lo].r == r
}

// Read returns ρ(r); unmapped registers read as Pub(0), mirroring a
// zeroed register file at power-on.
func (f *RegisterFile) Read(r Reg) Value {
	if k, ok := f.find(r); ok {
		return f.cells[k].v
	}
	return Pub(0)
}

// Write sets ρ(r) = v.
func (f *RegisterFile) Write(r Reg, v Value) {
	k, existed := f.find(r)
	if f.hashed {
		if existed {
			f.sum -= cellHash(uint64(r), f.cells[k].v)
		}
		f.sum += cellHash(uint64(r), v)
	}
	if f.shared {
		cells := make([]regCell, len(f.cells), len(f.cells)+1)
		copy(cells, f.cells)
		f.cells, f.shared = cells, false
	}
	if !existed {
		f.cells = append(f.cells, regCell{})
		copy(f.cells[k+1:], f.cells[k:])
		f.cells[k].r = r
	}
	f.cells[k].v = v
}

// HashSum returns the order-independent hash sum over all mapped
// registers; like Memory.HashSum, the first call activates incremental
// maintenance.
func (f *RegisterFile) HashSum() uint64 {
	if !f.hashed {
		f.hashed = true
		f.sum = 0
		for _, c := range f.cells {
			f.sum += cellHash(uint64(c.r), c.v)
		}
	}
	return f.sum
}

// Clone returns an independent copy of the register file in O(1): both
// sides share the cells and copy them on their next write.
func (f *RegisterFile) Clone() *RegisterFile {
	f.shared = true
	return &RegisterFile{cells: f.cells, shared: true, sum: f.sum, hashed: f.hashed}
}

// Registers returns the mapped registers in increasing order.
func (f *RegisterFile) Registers() []Reg {
	out := make([]Reg, len(f.cells))
	for k, c := range f.cells {
		out[k] = c.r
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
	a, b := f.cells, o.cells
	for len(a) > 0 || len(b) > 0 {
		v, w := Pub(0), Pub(0)
		switch {
		case len(b) == 0 || len(a) > 0 && a[0].r < b[0].r:
			v, a = a[0].v, a[1:]
		case len(a) == 0 || b[0].r < a[0].r:
			w, b = b[0].v, b[1:]
		default:
			v, w, a, b = a[0].v, b[0].v, a[1:], b[1:]
		}
		if !eq(v, w) {
			return false
		}
	}
	return true
}
