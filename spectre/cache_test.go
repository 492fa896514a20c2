package spectre_test

import (
	"slices"
	"testing"

	"pitchfork/spectre"
)

func mustCache(t *testing.T, sets, ways int, lineWords spectre.Word) *spectre.Cache {
	t.Helper()
	c, err := spectre.NewCache(sets, ways, lineWords)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheBasics(t *testing.T) {
	c := mustCache(t, 4, 2, 1)
	if c.Hit(0x40) {
		t.Fatal("cold cache must miss")
	}
	c.Touch(0x40)
	if !c.Hit(0x40) {
		t.Fatal("touched line must hit")
	}
	c.Flush(0x40)
	if c.Hit(0x40) {
		t.Fatal("flushed line must miss")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := mustCache(t, 1, 2, 1) // single set, two ways
	c.Touch(0)
	c.Touch(1)
	c.Touch(2) // evicts 0 (LRU)
	if c.Hit(0) {
		t.Fatal("LRU line must be evicted")
	}
	if !c.Hit(1) || !c.Hit(2) {
		t.Fatal("MRU lines must stay")
	}
	// Re-touching 1 makes 2 the LRU.
	c.Touch(1)
	c.Touch(3)
	if c.Hit(2) {
		t.Fatal("2 must be evicted after 1 was re-touched")
	}
}

func TestCacheGeometryValidation(t *testing.T) {
	if _, err := spectre.NewCache(0, 1, 1); err == nil {
		t.Fatal("zero sets must be rejected")
	}
	if _, err := spectre.NewCache(1, 0, 1); err == nil {
		t.Fatal("zero ways must be rejected")
	}
	if _, err := spectre.NewCache(1, 1, 0); err == nil {
		t.Fatal("zero line size must be rejected")
	}
}

func TestLineGranularity(t *testing.T) {
	c := mustCache(t, 8, 2, 4)
	c.Touch(0x41)
	if !c.Hit(0x42) || !c.Hit(0x40) {
		t.Fatal("same-line addresses must hit")
	}
	if c.Hit(0x44) {
		t.Fatal("next line must miss")
	}
}

func TestReplayTouchesReadsAndWrites(t *testing.T) {
	c := mustCache(t, 16, 4, 1)
	c.Replay(spectre.Trace{
		{Kind: spectre.ObsRead, Addr: 0x10},
		{Kind: spectre.ObsWrite, Addr: 0x20},
		{Kind: spectre.ObsFwd, Addr: 0x30}, // bypasses the cache
		{Kind: spectre.ObsJump, Target: 5},
		{Kind: spectre.ObsRollback},
	})
	if !c.Hit(0x10) || !c.Hit(0x20) {
		t.Fatal("reads and writes must touch")
	}
	if c.Hit(0x30) {
		t.Fatal("forwards must not touch")
	}
}

// figureProbe replays the named gallery figure's schedule and runs the
// Figure 1 attacker's flush+reload probe over array B.
func figureProbe(t *testing.T, id string) []int {
	t.Helper()
	fig, ok := spectre.FigureByID(id)
	if !ok {
		t.Fatalf("%s missing from the gallery", id)
	}
	trace, err := fig.Trace()
	if err != nil {
		t.Fatal(err)
	}
	fr := spectre.FlushReload{Cache: mustCache(t, 64, 4, 1), ProbeBase: 0x44, Stride: 1, Slots: 256}
	return fr.Recover(trace)
}

// TestFlushReloadRecoversFigure1Secret is the end-to-end demo: run the
// Figure 1 attack, feed the observation trace through the cache, and
// recover Key[1] with flush+reload — exactly the attacker the paper's
// §2 describes.
func TestFlushReloadRecoversFigure1Secret(t *testing.T) {
	hot := figureProbe(t, "fig1")
	// Two hot slots: slot 5 is the victim's known in-bounds read of
	// array A at 0x49 (discounted by the attacker); slot 0xA1 is the
	// probe hit that reveals Key[1].
	if !slices.Contains(hot, 0xA1) {
		t.Fatalf("hot slots %v must include Key[1] = 0xA1", hot)
	}
	if len(hot) != 2 {
		t.Fatalf("hot slots = %v, want the A-read plus the leak", hot)
	}
}

// TestFlushReloadFailsOnFencedVictim: the Figure 8 victim leaks
// nothing, so the probe comes back cold (modulo the in-bounds slot).
func TestFlushReloadFailsOnFencedVictim(t *testing.T) {
	if hot := figureProbe(t, "fig8"); len(hot) != 0 {
		t.Fatalf("fenced victim must leak nothing, recovered %v", hot)
	}
}
