package spectre

import "fmt"

// Cache is a set-associative LRU cache driven by observation traces,
// tracking line presence only (the timing channel needs nothing else).
// It is an extension beyond the paper's model: the paper deliberately
// does not model caches (§3.1), because any replacement policy is a
// function of the observation sequence. This type demonstrates that
// claim constructively — replay a trace and probe what a timing
// attacker would see.
type Cache struct {
	sets      int
	ways      int
	lineWords Word
	lines     [][]Word // per set, MRU first; values are line tags
}

// NewCache builds a cache with the given geometry. sets and ways must
// be positive; lineWords is the words-per-line granularity (1 models
// word-granular probing).
func NewCache(sets, ways int, lineWords Word) (*Cache, error) {
	if sets < 1 || ways < 1 || lineWords < 1 {
		return nil, fmt.Errorf("spectre: invalid cache geometry %d×%d×%d", sets, ways, lineWords)
	}
	return &Cache{sets: sets, ways: ways, lineWords: lineWords, lines: make([][]Word, sets)}, nil
}

func (c *Cache) locate(a Word) (set int, tag Word) {
	line := a / c.lineWords
	return int(line % Word(c.sets)), line
}

// Touch accesses address a, inserting its line MRU-first.
func (c *Cache) Touch(a Word) {
	set, tag := c.locate(a)
	ls := c.lines[set]
	for i, t := range ls {
		if t == tag {
			copy(ls[1:i+1], ls[:i])
			ls[0] = tag
			return
		}
	}
	if len(ls) < c.ways {
		ls = append(ls, 0)
	}
	copy(ls[1:], ls)
	ls[0] = tag
	c.lines[set] = ls
}

// Flush evicts the line holding a.
func (c *Cache) Flush(a Word) {
	set, tag := c.locate(a)
	ls := c.lines[set]
	for i, t := range ls {
		if t == tag {
			c.lines[set] = append(ls[:i], ls[i+1:]...)
			return
		}
	}
}

// FlushAll empties the cache.
func (c *Cache) FlushAll() {
	for i := range c.lines {
		c.lines[i] = nil
	}
}

// Hit reports whether a's line is resident.
func (c *Cache) Hit(a Word) bool {
	set, tag := c.locate(a)
	for _, t := range c.lines[set] {
		if t == tag {
			return true
		}
	}
	return false
}

// Replay drives the cache with the memory events of a trace: reads
// and writes touch their address; forwards bypass the cache (that is
// what the fwd observation means).
func (c *Cache) Replay(t Trace) {
	for _, o := range t {
		if o.Kind == ObsRead || o.Kind == ObsWrite {
			c.Touch(o.Addr)
		}
	}
}

// FlushReload is the classic probe: flush the probe array, run the
// victim (the trace), and reload each slot — a hot slot's index is a
// candidate leaked value.
type FlushReload struct {
	Cache *Cache
	// ProbeBase is the start of the attacker-visible probe array
	// (array B in Figure 1), Stride the spacing between slots, Slots
	// the number of candidate secret values.
	ProbeBase Word
	Stride    Word
	Slots     int
}

// Recover replays the victim trace and returns every hot probe slot
// in increasing order. Accesses the victim makes architecturally
// (e.g. Figure 1's in-bounds array-A read) are known to the attacker
// and can be discounted; the remaining hot slot is the leaked secret.
// An empty result means the victim touched no probe slot.
func (fr FlushReload) Recover(t Trace) []int {
	fr.Cache.FlushAll()
	fr.Cache.Replay(t)
	var hot []int
	for s := 0; s < fr.Slots; s++ {
		if fr.Cache.Hit(fr.ProbeBase + Word(s)*fr.Stride) {
			hot = append(hot, s)
		}
	}
	return hot
}
