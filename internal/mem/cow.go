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
// fork, not to the map size. It backs the concrete Memory here and
// the symbolic containers in internal/symx.
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
