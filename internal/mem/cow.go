package mem

// MaxChainDepth bounds the overlay chain length of a CowMap. Fork
// flattens a chain that reaches this depth before sharing it, so
// lookups stay O(1) amortized while the flatten cost is spread over
// many forks.
const MaxChainDepth = 8

// layer is one frozen overlay of a copy-on-write chain. Once a layer
// is created it is never written again, so clones on both sides of a
// fork may read it concurrently without coordination.
type layer[K comparable, V any] struct {
	parent *layer[K, V]
	cells  map[K]V
}

// CowMap is a copy-on-write map: a mutable private overlay on a chain
// of frozen ancestor layers. Fork is O(1) — it freezes the private
// overlay into the shared chain and hands out an empty one — so
// cloning cost is proportional to the data written since the last
// fork, not to the map size. It backs the two data memories: the
// concrete Memory here and the symbolic Memory in internal/symx.
// Register files, which are small, use the flat CellFile instead.
type CowMap[K comparable, V any] struct {
	parent *layer[K, V]
	cells  map[K]V // private overlay; lazily allocated
	depth  int     // number of frozen ancestor layers
	count  int     // effective number of mapped keys
}

// Lookup returns the effective binding of k: the private overlay
// first, then the frozen layers young-to-old.
func (c *CowMap[K, V]) Lookup(k K) (V, bool) {
	if v, ok := c.cells[k]; ok {
		return v, true
	}
	for l := c.parent; l != nil; l = l.parent {
		if v, ok := l.cells[k]; ok {
			return v, true
		}
	}
	var zero V
	return zero, false
}

// Set binds k in the private overlay and returns the previous
// effective binding, for incremental hash maintenance.
func (c *CowMap[K, V]) Set(k K, v V) (old V, existed bool) {
	old, existed = c.Lookup(k)
	if !existed {
		c.count++
	}
	if c.cells == nil {
		c.cells = make(map[K]V, 8)
	}
	c.cells[k] = v
	return old, existed
}

// Len returns the effective number of mapped keys.
func (c *CowMap[K, V]) Len() int { return c.count }

// Fork freezes the private overlay into the shared chain and returns
// an independent head over the same chain. Both the receiver and the
// returned map continue with empty private overlays; neither can
// observe the other's subsequent writes.
func (c *CowMap[K, V]) Fork() CowMap[K, V] {
	if c.depth >= MaxChainDepth {
		c.Flatten()
	}
	if len(c.cells) > 0 {
		c.parent = &layer[K, V]{parent: c.parent, cells: c.cells}
		c.cells = nil
		c.depth++
	}
	return CowMap[K, V]{parent: c.parent, depth: c.depth, count: c.count}
}

// Flatten materializes the effective contents into a single private
// overlay and drops the chain.
func (c *CowMap[K, V]) Flatten() {
	if c.parent == nil {
		return
	}
	flat := make(map[K]V, c.count)
	for k, v := range c.cells {
		flat[k] = v
	}
	for l := c.parent; l != nil; l = l.parent {
		for k, v := range l.cells {
			if _, ok := flat[k]; !ok {
				flat[k] = v
			}
		}
	}
	c.cells, c.parent, c.depth = flat, nil, 0
}

// FlatEach flattens the chain and visits every effective binding
// exactly once. Intended for one-time whole-container folds (hash-sum
// activation); after the call the map has no ancestor layers.
func (c *CowMap[K, V]) FlatEach(fn func(K, V)) {
	c.Flatten()
	for k, v := range c.cells {
		fn(k, v)
	}
}

// EachKey visits every key of every layer, private overlay first. A
// key written in several layers is visited once per layer; callers
// must tolerate duplicates (and resolve values through Lookup).
// Returning false from fn stops the walk. The walk allocates nothing.
func (c *CowMap[K, V]) EachKey(fn func(K) bool) {
	for k := range c.cells {
		if !fn(k) {
			return
		}
	}
	for l := c.parent; l != nil; l = l.parent {
		for k := range l.cells {
			if !fn(k) {
				return
			}
		}
	}
}

// Keys returns the effective key set, deduplicated.
func (c *CowMap[K, V]) Keys() []K {
	out := make([]K, 0, c.count)
	if c.parent == nil {
		for k := range c.cells {
			out = append(out, k)
		}
		return out
	}
	seen := make(map[K]struct{}, c.count)
	c.EachKey(func(k K) bool {
		seen[k] = struct{}{}
		return true
	})
	for k := range seen {
		out = append(out, k)
	}
	return out
}

// CellFile is a flat copy-on-write map from registers to values: one
// slice of cells sorted by register, searched by bisection, for every
// register number alike. A program's registers are few, so the whole
// file is a handful of cache lines. Fork is O(1) and shares the slice;
// the first Set after a fork, on either side, copies it. It backs the
// concrete RegisterFile here and the symbolic register file in
// internal/symx; each wraps it with its own read default and hash sum.
type CellFile[V any] struct {
	cells []Cell[V]
	// shared marks cells as possibly aliased by a fork; the next Set
	// copies it first.
	shared bool
}

// Cell is one mapped register of a CellFile.
type Cell[V any] struct {
	R   Reg
	Val V
}

// find returns the position of r in the sorted cells, or the position
// it would be inserted at, and whether it is mapped.
func (f *CellFile[V]) find(r Reg) (int, bool) {
	lo, hi := 0, len(f.cells)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f.cells[mid].R < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(f.cells) && f.cells[lo].R == r
}

// Lookup returns the binding of r, if mapped.
func (f *CellFile[V]) Lookup(r Reg) (V, bool) {
	if k, ok := f.find(r); ok {
		return f.cells[k].Val, true
	}
	var zero V
	return zero, false
}

// Set binds r to v and returns the previous binding, for incremental
// hash maintenance.
func (f *CellFile[V]) Set(r Reg, v V) (old V, existed bool) {
	k, existed := f.find(r)
	if existed {
		old = f.cells[k].Val
	}
	if f.shared {
		cells := make([]Cell[V], len(f.cells), len(f.cells)+1)
		copy(cells, f.cells)
		f.cells, f.shared = cells, false
	}
	if !existed {
		f.cells = append(f.cells, Cell[V]{})
		copy(f.cells[k+1:], f.cells[k:])
		f.cells[k].R = r
	}
	f.cells[k].Val = v
	return old, existed
}

// Fork returns an independent file over the same cells in O(1). Both
// the receiver and the returned file copy the cells on their next Set,
// so neither can observe the other's subsequent writes.
func (f *CellFile[V]) Fork() CellFile[V] {
	f.shared = true
	return CellFile[V]{cells: f.cells, shared: true}
}

// Len returns the number of mapped registers.
func (f *CellFile[V]) Len() int { return len(f.cells) }

// Cells returns the mapped cells in increasing register order. The
// slice is the file's own storage, possibly shared with forks: callers
// must not modify it, and it is valid only until the next Set.
func (f *CellFile[V]) Cells() []Cell[V] { return f.cells }
