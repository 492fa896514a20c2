package core

import (
	"fmt"
	"strings"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

// Buffer is the reorder buffer buf : N ⇀ TransInstr. Its domain is
// always a contiguous range of indices [Min, Max] (the paper's rules
// "add and remove indices in a way that ensures that buf's domain will
// always be contiguous"), so it is represented as a slice plus a base.
// Indices grow monotonically across the run; the first fetched
// instruction lands at index 1, matching MAX(∅) = 0.
//
// The representation is copy-on-write: Clone is O(1) and shares the
// backing slice (and the transients it points to) with the original.
// Mutating operations re-own the slice lazily, and in-place transient
// mutation goes through Edit, which copies an entry that may still be
// shared with a clone. Reslicing operations (PopMin, TruncateFrom)
// never touch the shared array, so they stay O(1) even when shared.
type Buffer struct {
	base  int // index of items[0]; Min when non-empty
	items []*Transient
	// shared marks the backing array as possibly aliased by a clone;
	// the next array write copies it first.
	shared bool
	// privateFrom is the lowest index whose transient is known to be
	// owned exclusively by this buffer (everything at or above it was
	// appended after the last Clone). Edit mutates those in place and
	// copies older, possibly shared entries.
	privateFrom int
	// fence is the index of the lowest buffered fence, 0 for none
	// (indices start at 1), so FenceBefore is O(1). Append and Set
	// lower it, TruncateFrom drops it when it is cut off, and only
	// retiring that fence rescans for the next one.
	fence int
	// arena bump-allocates transients in chunks, so the fetch and
	// execute rules do not pay one heap allocation per instruction.
	// Cells are never reused; a clone starts a fresh arena (the parent
	// keeps the tail of the current chunk, so the two never write the
	// same cell).
	arena []Transient
}

// transientArenaChunk caps the arena's chunk size. Chunks start small
// and double up to the cap: a freshly forked buffer that only places
// one or two transients before forking again pays no more than the
// old per-transient allocation, while long straight-line runs
// amortize to a chunk per 32 instructions.
const transientArenaChunk = 32

// alloc returns a fresh arena cell.
func (b *Buffer) alloc() *Transient {
	if len(b.arena) == cap(b.arena) {
		n := cap(b.arena) * 2
		if n == 0 {
			n = 2
		}
		if n > transientArenaChunk {
			n = transientArenaChunk
		}
		b.arena = make([]Transient, 0, n)
	}
	b.arena = append(b.arena, Transient{})
	return &b.arena[len(b.arena)-1]
}

// NewBuffer returns an empty reorder buffer whose first insertion gets
// index 1.
func NewBuffer() *Buffer { return &Buffer{base: 1, privateFrom: 1} }

// own re-owns the backing array before a write when it may be shared
// with a clone. Only the pointer slice is copied; the transients stay
// shared and are protected by Edit's entry-level copy-on-write.
func (b *Buffer) own() {
	if !b.shared {
		return
	}
	items := make([]*Transient, len(b.items), len(b.items)+8)
	copy(items, b.items)
	b.items = items
	b.shared = false
}

// Len returns the number of buffered transient instructions.
func (b *Buffer) Len() int { return len(b.items) }

// Empty reports whether the buffer holds no instructions.
func (b *Buffer) Empty() bool { return len(b.items) == 0 }

// Min returns MIN(buf). For an empty buffer it returns the next index
// to be allocated; on the initial buffer that is 1, consistent with
// the paper's MIN(∅) = 0 + the first fetch landing at MAX(∅)+1 = 1.
// Keeping the base (rather than resetting to 0) preserves the
// invariant that Append always inserts at Max()+1 even after the
// buffer drains mid-run.
func (b *Buffer) Min() int { return b.base }

// Max returns MAX(buf); for an empty buffer it returns base-1 so that
// Max()+1 is always the next insertion index (0 on the initial empty
// buffer, matching MAX(∅) = 0).
func (b *Buffer) Max() int {
	if len(b.items) == 0 {
		return b.base - 1
	}
	return b.base + len(b.items) - 1
}

// Contains reports whether index i is in the buffer's domain.
func (b *Buffer) Contains(i int) bool {
	return i >= b.base && i < b.base+len(b.items)
}

// Get returns buf(i).
func (b *Buffer) Get(i int) (*Transient, bool) {
	if !b.Contains(i) {
		return nil, false
	}
	return b.items[i-b.base], true
}

// Append inserts at MAX(buf)+1 and returns the new index.
func (b *Buffer) Append(t *Transient) int {
	b.own()
	b.items = append(b.items, t)
	i := b.base + len(b.items) - 1
	if t.Kind == TFence && b.fence == 0 {
		b.fence = i
	}
	return i
}

// AppendT is Append for a transient passed by value: the entry is
// placed in the buffer's arena, so the caller's composite literal
// stays off the heap.
func (b *Buffer) AppendT(t Transient) int {
	nt := b.alloc()
	*nt = t
	return b.Append(nt)
}

// Set replaces buf(i); it panics if i is outside the domain, since the
// step rules only rewrite live entries.
func (b *Buffer) Set(i int, t *Transient) {
	if !b.Contains(i) {
		panic(fmt.Sprintf("core: Buffer.Set(%d) outside [%d,%d]", i, b.Min(), b.Max()))
	}
	b.own()
	b.items[i-b.base] = t
	b.setFence(i, t.Kind)
}

// setFence keeps the lowest-fence index exact after buf(i) became an
// entry of kind k.
func (b *Buffer) setFence(i int, k TKind) {
	switch {
	case k == TFence && (b.fence == 0 || i < b.fence):
		b.fence = i
	case k != TFence && i == b.fence:
		b.fence = b.lowestFence()
	}
}

// SetT is Set for a transient passed by value. An entry exclusively
// owned by this buffer (i >= privateFrom, the invariant Edit relies
// on) is overwritten in place; an older, possibly shared one is
// replaced by a fresh arena cell like AppendT's.
func (b *Buffer) SetT(i int, t Transient) {
	if i >= b.privateFrom && b.Contains(i) {
		*b.items[i-b.base] = t
		b.setFence(i, t.Kind)
		return
	}
	nt := b.alloc()
	*nt = t
	b.Set(i, nt)
}

// Edit returns buf(i) for in-place mutation. An entry that may still
// be shared with a clone is copied (into the arena) and re-installed
// first, so the returned transient is exclusively owned by this
// buffer. Step rules that partially resolve an entry (store
// value/address, predicted forwards) must mutate through Edit rather
// than Get, and must not change the entry's Kind.
func (b *Buffer) Edit(i int) (*Transient, bool) {
	if !b.Contains(i) {
		return nil, false
	}
	b.own()
	if i >= b.privateFrom {
		return b.items[i-b.base], true
	}
	cp := b.alloc()
	*cp = *b.items[i-b.base]
	b.items[i-b.base] = cp
	return cp, true
}

// TruncateFrom implements buf[j : j < i]: it removes every entry at
// index ≥ i.
func (b *Buffer) TruncateFrom(i int) {
	if b.fence >= i {
		b.fence = 0 // every fence is cut off with the lowest one
	}
	if i <= b.base {
		b.items = b.items[:0]
		return
	}
	if i > b.base+len(b.items) {
		return
	}
	b.items = b.items[:i-b.base]
}

// PopMin removes and returns buf(MIN(buf)).
func (b *Buffer) PopMin() (*Transient, bool) {
	if len(b.items) == 0 {
		return nil, false
	}
	t := b.items[0]
	b.items = b.items[1:]
	b.base++
	if b.fence != 0 && b.fence < b.base {
		b.fence = b.lowestFence()
	}
	return t, true
}

// PopMinN removes the k lowest-indexed entries; used by call-retire and
// ret-retire, which retire their whole expansion at once.
func (b *Buffer) PopMinN(k int) {
	if k > len(b.items) {
		panic("core: PopMinN beyond buffer")
	}
	b.items = b.items[k:]
	b.base += k
	if b.fence != 0 && b.fence < b.base {
		b.fence = b.lowestFence()
	}
}

// FenceBefore reports whether any index j < i holds a fence — the
// highlighted side condition ∀j < i : buf(j) ≠ fence on every execute
// rule.
func (b *Buffer) FenceBefore(i int) bool { return b.fence != 0 && b.fence < i }

// lowestFence scans for the index of the lowest buffered fence, 0 for
// none.
func (b *Buffer) lowestFence() int {
	for k, t := range b.items {
		if t.Kind == TFence {
			return b.base + k
		}
	}
	return 0
}

// Indices returns the live indices in increasing order.
func (b *Buffer) Indices() []int {
	out := make([]int, len(b.items))
	for i := range b.items {
		out[i] = b.base + i
	}
	return out
}

// Clone returns an independent copy in O(1). The backing array and
// the transients are shared; both buffers mark them copy-on-write, so
// neither can observe the other's subsequent mutations.
func (b *Buffer) Clone() *Buffer {
	b.shared = true
	b.privateFrom = b.base + len(b.items)
	return &Buffer{base: b.base, items: b.items, shared: true, privateFrom: b.privateFrom, fence: b.fence}
}

// String renders the buffer one entry per line, figure-style.
func (b *Buffer) String() string {
	if b.Empty() {
		return "∅"
	}
	var sb strings.Builder
	for j := b.Min(); j <= b.Max(); j++ {
		t, _ := b.Get(j)
		fmt.Fprintf(&sb, "%d ↦ %s\n", j, t)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// ResolveReg implements the register resolve function (buf +i ρ)(r) of
// Fig. 3, extended per §3.5 to read through partially resolved loads:
//
//   - the latest assignment to r at an index j < i that is resolved
//     yields its value;
//   - a latest assignment that is unresolved yields ⊥ (ok == false);
//   - no assignment at all defers to ρ(r).
func (b *Buffer) ResolveReg(i int, regs *mem.RegisterFile, r isa.Reg) (mem.Value, bool) {
	hi := b.Max()
	if i-1 < hi {
		hi = i - 1
	}
	for j := hi; j >= b.Min() && j >= 1; j-- {
		t, ok := b.Get(j)
		if !ok || !t.AssignsReg(r) {
			continue
		}
		switch t.Kind {
		case TValue:
			return t.Val, true
		case TLoad:
			if t.PredFwd {
				return t.PredVal, true // §3.5 extension
			}
			return mem.Value{}, false // pending assignment: ⊥
		case TOp:
			return mem.Value{}, false // pending assignment: ⊥
		}
	}
	return regs.Read(r), true
}

// ResolveOperand lifts ResolveReg to a register-or-value operand:
// (buf +i ρ)(vℓ) = vℓ for immediates.
func (b *Buffer) ResolveOperand(i int, regs *mem.RegisterFile, o isa.Operand) (mem.Value, bool) {
	if !o.IsReg {
		return o.Imm, true
	}
	return b.ResolveReg(i, regs, o.Reg)
}

// ResolveOperands is the pointwise lifting to operand lists; it fails
// if any operand is ⊥.
func (b *Buffer) ResolveOperands(i int, regs *mem.RegisterFile, os []isa.Operand) ([]mem.Value, bool) {
	return b.ResolveOperandsInto(nil, i, regs, os)
}

// ResolveOperandsInto is ResolveOperands with a caller-supplied
// destination, reused when its capacity suffices; the step rules pass
// a per-machine scratch so per-step operand resolution allocates
// nothing. The result aliases dst and is only valid until its next
// reuse.
func (b *Buffer) ResolveOperandsInto(dst []mem.Value, i int, regs *mem.RegisterFile, os []isa.Operand) ([]mem.Value, bool) {
	if cap(dst) < len(os) {
		dst = make([]mem.Value, len(os))
	}
	dst = dst[:len(os)]
	for k, o := range os {
		v, ok := b.ResolveOperand(i, regs, o)
		if !ok {
			return nil, false
		}
		dst[k] = v
	}
	return dst, true
}
