package serve

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"
)

// memKeys returns the keys the memory tier holds, sorted, without
// counting as a use of any.
func (c *Cache) memKeys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for k := range c.entries {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// TestGreedyDualEqualCostsIsLRU: when every entry costs the same, the
// memory tier evicts exactly what an LRU would, for zero and nonzero
// costs alike.
func TestGreedyDualEqualCostsIsLRU(t *testing.T) {
	for _, cost := range []time.Duration{0, 3 * time.Millisecond} {
		const capacity = 5
		c, err := NewCache(capacity, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		var lru []string // front = least recently used
		use := func(k string) {
			if i := slices.Index(lru, k); i >= 0 {
				lru = slices.Delete(lru, i, i+1)
			}
			lru = append(lru, k)
		}
		rng := rand.New(rand.NewPCG(1, uint64(cost)))
		for step := 0; step < 2000; step++ {
			k := fmt.Sprintf("k%d", rng.IntN(12))
			if rng.IntN(2) == 0 {
				c.Put(k, []byte(k), cost)
				use(k)
				if len(lru) > capacity {
					lru = lru[1:]
				}
			} else {
				_, tier := c.Get(k)
				if inModel := slices.Contains(lru, k); (tier == TierMem) != inModel {
					t.Fatalf("cost %v, step %d: Get(%s) tier %d, LRU model holds it: %v", cost, step, k, tier, inModel)
				}
				if tier == TierMem {
					use(k)
				}
			}
			if got, want := c.memKeys(), slices.Sorted(slices.Values(lru)); !slices.Equal(got, want) {
				t.Fatalf("cost %v, step %d: memory tier holds %v, LRU holds %v", cost, step, got, want)
			}
		}
	}
}

// TestGreedyDualKeepsExpensiveEntry: an expensive verdict survives a
// sweep of cheaper ones that would have pushed it out of an LRU, and
// is still answered from memory afterwards.
func TestGreedyDualKeepsExpensiveEntry(t *testing.T) {
	c, err := NewCache(4, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("expensive", []byte("E"), 20*time.Millisecond)
	for i := 0; i < 12; i++ {
		c.Put(fmt.Sprintf("cheap-%d", i), []byte("C"), 100*time.Microsecond)
	}
	if v, tier := c.Get("expensive"); tier != TierMem || string(v.raw) != "E" {
		t.Errorf("expensive entry after a sweep of 12 cheap ones: (%q, tier %d), want (E, mem)", v.raw, tier)
	}
	if got := c.Stats().MemEvictions; got != 9 {
		t.Errorf("memEvictions = %d, want 9 (13 entries into 4 slots)", got)
	}
}

// TestGreedyDualNewestNotItsOwnVictim: a full tier makes room before
// the new entry goes in, so even an entry cheaper than everything held
// is stored, and a one-entry tier always holds the latest Put.
func TestGreedyDualNewestNotItsOwnVictim(t *testing.T) {
	c, err := NewCache(2, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("a", []byte("A"), time.Hour)
	c.Put("b", []byte("B"), 2*time.Hour)
	c.Put("free", []byte("F"), 0)
	if _, tier := c.Get("free"); tier != TierMem {
		t.Error("the newest entry was evicted on insertion")
	}
	if _, tier := c.Get("a"); tier != TierNone {
		t.Error("the cheapest held entry survived; it should have made room")
	}

	one, err := NewCache(1, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	one.Put("x", []byte("X"), time.Hour)
	one.Put("y", []byte("Y"), 0)
	if _, tier := one.Get("y"); tier != TierMem {
		t.Error("a one-entry tier does not hold the latest Put")
	}
	if _, tier := one.Get("x"); tier != TierNone {
		t.Error("a one-entry tier still holds the previous entry")
	}
}

// TestGreedyDualAgesOut: an expensive entry that is never used again
// is not pinned: every eviction of cheaper traffic raises L, and once
// L passes the entry's priority it is the next victim.
func TestGreedyDualAgesOut(t *testing.T) {
	c, err := NewCache(4, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("expensive", []byte("E"), 20*time.Millisecond)
	for i := 0; i < 2000; i++ {
		c.Put(fmt.Sprintf("cheap-%d", i), []byte("C"), 100*time.Microsecond)
		if !slices.Contains(c.memKeys(), "expensive") {
			t.Logf("expensive entry aged out after %d cheap Puts", i+1)
			return
		}
	}
	t.Error("an untouched expensive entry survived 2000 cheaper Puts")
}

// TestGreedyDualConcurrent runs Get and Put with mixed costs from many
// goroutines under -race: every hit returns its key's bytes, and the
// tier never exceeds its capacity.
func TestGreedyDualConcurrent(t *testing.T) {
	const capacity = 8
	c, err := NewCache(capacity, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 7))
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("k%d", rng.IntN(24))
				if rng.IntN(3) == 0 {
					c.Put(k, []byte(k), time.Duration(rng.IntN(1000))*time.Microsecond)
					continue
				}
				if v, tier := c.Get(k); tier == TierMem && !bytes.Equal(v.raw, []byte(k)) {
					t.Errorf("Get(%s) = %q", k, v.raw)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := c.MemLen(); n > capacity {
		t.Errorf("memory tier holds %d entries, capacity %d", n, capacity)
	}
	if len(c.entries) != len(c.victims) {
		t.Errorf("%d entries indexed, %d in the victim heap", len(c.entries), len(c.victims))
	}
	for i, e := range c.victims {
		if e.at != i || c.entries[e.key] != e {
			t.Errorf("heap slot %d holds %s, which records slot %d", i, e.key, e.at)
		}
	}
}
