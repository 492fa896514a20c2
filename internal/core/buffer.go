package core

import (
	"fmt"
	"iter"
	"strings"
)

// BufferEntry is what the reorder buffer needs to know about the
// transient instructions it holds: which of them are fences, so the
// execute rules' fence side condition stays O(1), and which are
// pending branches, so the schedule strategy visits only those. Both
// value domains' transient types implement it on the pointer, so the
// buffer asks an entry without copying it.
type BufferEntry interface {
	IsFence() bool
	IsBranch() bool
}

// entryPtr is the constraint on a buffer's second type parameter: a
// pointer to its entry type that implements BufferEntry.
type entryPtr[T any] interface {
	*T
	BufferEntry
}

// Buffer is the reorder buffer buf : N ⇀ TransInstr, generic over the
// transient-instruction type T of a value domain (Transient for the
// concrete machine); P is *T, through which the buffer reads an entry's
// BufferEntry methods. Its domain is always a contiguous range of indices
// [Min, Max] (the paper's rules "add and remove indices in a way that
// ensures that buf's domain will always be contiguous"), so it is
// represented as a slice plus a base. Indices grow monotonically across
// the run; the first fetched instruction lands at index 1, matching
// MAX(∅) = 0.
//
// The representation is copy-on-write: CloneTo is O(1) and shares the
// backing slice (and the transients it points to) with the original.
// Mutating operations re-own the slice lazily, and in-place transient
// mutation goes through Edit, which copies an entry that may still be
// shared with a clone. Reslicing operations (PopMinN, TruncateFrom)
// never touch the shared array, so they stay O(1) even when shared.
type Buffer[T any, P entryPtr[T]] struct {
	base  int // index of items[0]; Min when non-empty
	items []*T
	// shared marks the backing array as possibly aliased by a clone;
	// the next array write copies it first.
	shared bool
	// privateFrom is the lowest index whose transient is known to be
	// owned exclusively by this buffer (everything at or above it was
	// appended after the last CloneTo). Edit and SetT mutate those in
	// place and copy older, possibly shared entries.
	privateFrom int
	// fence is the index of the lowest buffered fence, 0 for none
	// (indices start at 1), so FenceBefore is O(1). AppendT and SetT
	// lower it, TruncateFrom drops it when it is cut off, and only
	// retiring that fence rescans for the next one.
	fence int
	// branches lists the indices of the pending branches, ascending, so
	// the schedule strategy's branch pass visits only them. AppendT,
	// SetT, TruncateFrom and PopMinN keep it exact.
	branches branchIndex
	// arena bump-allocates transients in chunks, so the fetch and
	// execute rules do not pay one heap allocation per instruction.
	// Cells are never reused; a clone starts a fresh arena (the parent
	// keeps the tail of the current chunk, so the two never write the
	// same cell).
	arena []T
	// sum is the order-independent sum of hash(i, buf(i)) over the live
	// entries: the buffer's O(1) share of the machine fingerprint, kept
	// like the register file's and memory's. hash is nil until
	// StartHashing, so a run that never fingerprints pays one branch per
	// mutation; clones inherit it. hashes caches each live entry's hash,
	// aligned with items and copy-on-write with it, so removing or
	// replacing an entry does not rehash it. Edit hands out a pointer
	// the caller mutates afterwards, so it subtracts the entry's hash
	// and leaves the index in edited (0 for none); the next operation
	// rehashes the edited entry and adds it back (settle).
	sum    uint64
	hash   func(i int, t *T) uint64
	hashes []uint64
	edited int
}

// transientArenaChunk caps the arena's chunk size. Chunks start small
// and double up to the cap: a freshly forked buffer that only places
// one or two transients before forking again pays no more than the
// old per-transient allocation, while long straight-line runs
// amortize to a chunk per 32 instructions.
const transientArenaChunk = 32

// alloc returns a fresh arena cell holding a copy of *t. It takes a
// pointer so that the transient is copied once, into the cell.
func (b *Buffer[T, P]) alloc(t *T) *T {
	if len(b.arena) == cap(b.arena) {
		n := cap(b.arena) * 2
		if n == 0 {
			n = 2
		}
		if n > transientArenaChunk {
			n = transientArenaChunk
		}
		b.arena = make([]T, 0, n)
	}
	b.arena = b.arena[:len(b.arena)+1]
	c := &b.arena[len(b.arena)-1]
	*c = *t
	return c
}

// NewBuffer returns an empty reorder buffer whose first insertion gets
// index 1.
func NewBuffer[T any, P entryPtr[T]]() *Buffer[T, P] { return &Buffer[T, P]{base: 1, privateFrom: 1} }

// own re-owns the backing array before a write when it may be shared
// with a clone. Only the pointer slice is copied; the transients stay
// shared and are protected by the entry-level copy-on-write of Edit
// and SetT.
func (b *Buffer[T, P]) own() {
	if !b.shared {
		return
	}
	items := make([]*T, len(b.items), len(b.items)+8)
	copy(items, b.items)
	b.items = items
	if b.hash != nil {
		hashes := make([]uint64, len(b.hashes), len(b.hashes)+8)
		copy(hashes, b.hashes)
		b.hashes = hashes
	}
	b.shared = false
}

// Len returns the number of buffered transient instructions.
func (b *Buffer[T, P]) Len() int { return len(b.items) }

// Empty reports whether the buffer holds no instructions.
func (b *Buffer[T, P]) Empty() bool { return len(b.items) == 0 }

// Min returns MIN(buf). For an empty buffer it returns the next index
// to be allocated; on the initial buffer that is 1, consistent with
// the paper's MIN(∅) = 0 + the first fetch landing at MAX(∅)+1 = 1.
// Keeping the base (rather than resetting to 0) preserves the
// invariant that AppendT always inserts at Max()+1 even after the
// buffer drains mid-run.
func (b *Buffer[T, P]) Min() int { return b.base }

// Max returns MAX(buf); for an empty buffer it returns base-1 so that
// Max()+1 is always the next insertion index (0 on the initial empty
// buffer, matching MAX(∅) = 0).
func (b *Buffer[T, P]) Max() int {
	if len(b.items) == 0 {
		return b.base - 1
	}
	return b.base + len(b.items) - 1
}

// Contains reports whether index i is in the buffer's domain.
func (b *Buffer[T, P]) Contains(i int) bool {
	return i >= b.base && i < b.base+len(b.items)
}

// Get returns buf(i).
func (b *Buffer[T, P]) Get(i int) (*T, bool) {
	if !b.Contains(i) {
		return nil, false
	}
	return b.items[i-b.base], true
}

// AppendT inserts t at MAX(buf)+1 and returns the new index. The entry
// is placed in the buffer's arena, so the caller's composite literal
// stays off the heap.
func (b *Buffer[T, P]) AppendT(t T) int {
	b.own()
	p := b.alloc(&t)
	b.items = append(b.items, p)
	i := b.base + len(b.items) - 1
	if b.fence == 0 && P(p).IsFence() {
		b.fence = i
	}
	if P(p).IsBranch() {
		b.branches.insert(i)
	}
	if b.hash != nil {
		b.settle()
		h := b.hash(i, p)
		b.hashes = append(b.hashes, h)
		b.sum += h
	}
	return i
}

// SetT replaces buf(i); it panics if i is outside the domain, since the
// step rules only rewrite live entries. An entry exclusively owned by
// this buffer (i >= privateFrom, the invariant Edit relies on) is
// overwritten in place; an older, possibly shared one is replaced by a
// fresh arena cell.
func (b *Buffer[T, P]) SetT(i int, t T) {
	if !b.Contains(i) {
		panic(fmt.Sprintf("core: Buffer.SetT(%d) outside [%d,%d]", i, b.Min(), b.Max()))
	}
	if b.hash != nil {
		b.settle()
		b.sum -= b.hashes[i-b.base]
	}
	if i >= b.privateFrom {
		*b.items[i-b.base] = t
	} else {
		b.own()
		b.items[i-b.base] = b.alloc(&t)
	}
	if b.hash != nil {
		h := b.hash(i, b.items[i-b.base])
		b.hashes[i-b.base] = h
		b.sum += h
	}
	e := P(b.items[i-b.base])
	// Keep the lowest-fence index exact now that buf(i) is t.
	switch fence := e.IsFence(); {
	case fence && (b.fence == 0 || i < b.fence):
		b.fence = i
	case !fence && i == b.fence:
		b.fence = b.lowestFence()
	}
	// Likewise the branch index; buf(i) was a branch iff i is listed.
	if e.IsBranch() {
		b.branches.insert(i)
	} else {
		b.branches.remove(i)
	}
}

// Edit returns buf(i) for in-place mutation. An entry that may still
// be shared with a clone is copied (into the arena) and re-installed
// first, so the returned transient is exclusively owned by this
// buffer. Step rules that partially resolve an entry (store
// value/address, predicted forwards) must mutate through Edit rather
// than Get, and must not change whether the entry is a fence or a
// branch. The caller must finish mutating before its next call on
// the buffer, which re-hashes the entry.
func (b *Buffer[T, P]) Edit(i int) (*T, bool) {
	if !b.Contains(i) {
		return nil, false
	}
	if b.hash != nil {
		b.settle()
		b.sum -= b.hashes[i-b.base]
		b.edited = i
	}
	b.own()
	if i >= b.privateFrom {
		return b.items[i-b.base], true
	}
	cp := b.alloc(b.items[i-b.base])
	b.items[i-b.base] = cp
	return cp, true
}

// TruncateFrom implements buf[j : j < i]: it removes every entry at
// index ≥ i.
func (b *Buffer[T, P]) TruncateFrom(i int) {
	if b.fence >= i {
		b.fence = 0 // every fence is cut off with the lowest one
	}
	b.branches.cutFrom(i)
	n := min(max(i-b.base, 0), len(b.items)) // the entries kept
	if b.hash != nil {
		b.settle()
		for _, h := range b.hashes[n:] {
			b.sum -= h
		}
		b.hashes = b.hashes[:n]
	}
	b.items = b.items[:n]
}

// PopMinN removes the k lowest-indexed entries: 1 for the simple
// retire rules, the whole expansion for call-retire and ret-retire.
func (b *Buffer[T, P]) PopMinN(k int) {
	if k > len(b.items) {
		panic("core: PopMinN beyond buffer")
	}
	if b.hash != nil {
		b.settle()
		for _, h := range b.hashes[:k] {
			b.sum -= h
		}
		b.hashes = b.hashes[k:]
	}
	b.items = b.items[k:]
	b.base += k
	if b.fence != 0 && b.fence < b.base {
		b.fence = b.lowestFence()
	}
	b.branches.cutBelow(b.base)
}

// FenceBefore reports whether any index j < i holds a fence — the
// highlighted side condition ∀j < i : buf(j) ≠ fence on every execute
// rule.
func (b *Buffer[T, P]) FenceBefore(i int) bool { return b.fence != 0 && b.fence < i }

// Branches returns the indices of the pending branches, in ascending
// order. The slice aliases the buffer's index: it is valid until the
// next mutation and must not be modified.
func (b *Buffer[T, P]) Branches() []int { return b.branches.list() }

// lowestFence scans for the index of the lowest buffered fence, 0 for
// none.
func (b *Buffer[T, P]) lowestFence() int {
	for k, t := range b.items {
		if P(t).IsFence() {
			return b.base + k
		}
	}
	return 0
}

// All yields the live entries with their indices, in increasing index
// order.
func (b *Buffer[T, P]) All() iter.Seq2[int, *T] {
	return func(yield func(int, *T) bool) {
		for k, t := range b.items {
			if !yield(b.base+k, t) {
				return
			}
		}
	}
}

// CloneTo makes dst an independent copy in O(1), in storage the caller
// owns. The backing array and the transients are shared; both buffers
// mark them copy-on-write, so neither can observe the other's
// subsequent mutations.
func (b *Buffer[T, P]) CloneTo(dst *Buffer[T, P]) {
	b.settle()
	b.shared = true
	b.privateFrom = b.base + len(b.items)
	*dst = Buffer[T, P]{base: b.base, items: b.items, shared: true, privateFrom: b.privateFrom, fence: b.fence, branches: b.branches.clone(),
		sum: b.sum, hash: b.hash, hashes: b.hashes}
}

// Hashing reports whether the buffer keeps its hash sum.
func (b *Buffer[T, P]) Hashing() bool { return b.hash != nil }

// StartHashing switches the buffer (and, via CloneTo, its descendants)
// to keeping the sum of hash(i, buf(i)) over its live entries, from a
// sum over the entries it holds now. hash must be a pure function of
// the index and the entry's contents.
func (b *Buffer[T, P]) StartHashing(hash func(i int, t *T) uint64) {
	b.hash, b.sum, b.edited = hash, 0, 0
	b.hashes = make([]uint64, len(b.items))
	for k, t := range b.items {
		b.hashes[k] = hash(b.base+k, t)
		b.sum += b.hashes[k]
	}
}

// HashSum returns the sum of hash(i, buf(i)) over the live entries, in
// O(1); the buffer must be hashing (StartHashing). Buffers with equal
// entries at equal indices have equal sums, whatever operations built
// them.
func (b *Buffer[T, P]) HashSum() uint64 {
	b.settle()
	return b.sum
}

// settle adds the entry Edit last handed out back into the sum.
func (b *Buffer[T, P]) settle() {
	if i := b.edited; i != 0 {
		h := b.hash(i, b.items[i-b.base])
		b.hashes[i-b.base] = h
		b.sum += h
		b.edited = 0
	}
}

// branchInline is how many pending-branch indices a buffer holds
// inline. Eager fetch fills the window before any branch resolves, so
// at bound 250 a state holds every branch of the window: up to 15 on
// the Table 2 builds. A list that fits inline is copied with the
// struct, so the index costs no allocation to keep or to clone.
const branchInline = 16

// branchIndex is an ascending list of buffer indices. A list of up to
// branchInline entries lives in inline, which CloneTo copies with the
// struct; a longer one lives in heap, which CloneTo shares copy-on-write
// (shared marks it possibly aliased, so the next write copies it).
type branchIndex struct {
	n      int
	inline [branchInline]int
	heap   []int
	shared bool
}

// list returns the indices; it aliases x.
func (x *branchIndex) list() []int {
	if x.n <= branchInline {
		return x.inline[:x.n]
	}
	return x.heap[:x.n]
}

// writable returns the list in storage only x may write, with room for
// extra more entries.
func (x *branchIndex) writable(extra int) []int {
	l := x.list()
	n := len(l) + extra
	switch {
	case n <= branchInline:
		return l // inline
	case x.n > branchInline && !x.shared && cap(x.heap) >= n:
		return l // the heap list, owned
	case x.shared || cap(x.heap) < n:
		x.heap, x.shared = make([]int, 0, 2*n), false
	}
	return append(x.heap[:0], l...)
}

// store makes w, a list returned by writable and edited, the index.
func (x *branchIndex) store(w []int) {
	x.n = len(w)
	if x.n <= branchInline {
		copy(x.inline[:], w)
		return
	}
	x.heap = w
}

// insert adds index i unless it is listed.
func (x *branchIndex) insert(i int) {
	l := x.list()
	k := len(l)
	for k > 0 && l[k-1] > i {
		k--
	}
	if k > 0 && l[k-1] == i {
		return
	}
	w := append(x.writable(1), 0)
	copy(w[k+1:], w[k:])
	w[k] = i
	x.store(w)
}

// remove drops index i if it is listed.
func (x *branchIndex) remove(i int) {
	for k, j := range x.list() {
		if j == i {
			w := x.writable(0)
			x.store(append(w[:k], w[k+1:]...))
			return
		}
	}
}

// cutFrom drops every index ≥ i. Shortening writes nothing, so a
// shared list stays shared.
func (x *branchIndex) cutFrom(i int) {
	l := x.list()
	k := len(l)
	for k > 0 && l[k-1] >= i {
		k--
	}
	if x.n > branchInline && k <= branchInline {
		copy(x.inline[:], l[:k])
	}
	x.n = k
}

// cutBelow drops every index < i.
func (x *branchIndex) cutBelow(i int) {
	l := x.list()
	k := 0
	for k < len(l) && l[k] < i {
		k++
	}
	if k == 0 {
		return
	}
	switch n := x.n - k; {
	case x.n <= branchInline || n <= branchInline:
		copy(x.inline[:], l[k:])
	default:
		x.heap = x.heap[k:]
	}
	x.n -= k
}

// clone returns a copy of x that shares its heap list copy-on-write.
func (x *branchIndex) clone() branchIndex {
	c := *x
	if x.n > branchInline {
		x.shared, c.shared = true, true
	} else {
		c.heap, c.shared = nil, false
	}
	return c
}

// String renders the buffer one entry per line, figure-style.
func (b *Buffer[T, P]) String() string {
	if b.Empty() {
		return "∅"
	}
	var sb strings.Builder
	for j, t := range b.All() {
		fmt.Fprintf(&sb, "%d ↦ %s\n", j, t)
	}
	return strings.TrimRight(sb.String(), "\n")
}
