package core

import (
	"math/rand"
	"testing"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

// TestBufferCloneIndependence drives the copy-on-write reorder buffer
// through every mutating operation on both sides of a fork and checks
// the sibling never observes the change.
func TestBufferCloneIndependence(t *testing.T) {
	b := NewBuffer()
	b.Append(&Transient{Kind: TStore, Src: isa.R(1), Args: []isa.Operand{isa.ImmW(0x40)}})
	b.Append(&Transient{Kind: TLoad, Dst: 2, Args: []isa.Operand{isa.ImmW(0x41)}})
	b.Append(&Transient{Kind: TFence})

	c := b.Clone()

	// Entry-level mutation through Edit must not alias the sibling.
	et, ok := c.Edit(1)
	if !ok {
		t.Fatal("Edit(1) failed")
	}
	et.ValKnown = true
	et.SVal = mem.Sec(9)
	if bt, _ := b.Get(1); bt.ValKnown {
		t.Fatal("Edit on the clone mutated the original's entry")
	}

	// Array-level mutation: Set and Append on the original must not
	// show up in the clone.
	b.SetT(2, Transient{Kind: TValue, Dst: 2, Val: mem.Pub(5)})
	b.AppendT(Transient{Kind: TFence})
	if ct, _ := c.Get(2); ct.Kind != TLoad {
		t.Fatal("Set on the original leaked into the clone")
	}
	if c.Max() != 3 {
		t.Fatalf("clone Max = %d, want 3", c.Max())
	}

	// Reslicing ops on one side leave the other intact.
	c.TruncateFrom(2)
	if b.Max() != 4 {
		t.Fatalf("original Max = %d after clone truncate, want 4", b.Max())
	}
	if _, ok := b.Get(2); !ok {
		t.Fatal("original lost index 2 after clone truncate")
	}
	c.AppendT(Transient{Kind: TJump, Target: 7})
	if bt, _ := b.Get(2); bt.Kind != TValue {
		t.Fatal("clone append-after-truncate overwrote the original's entry")
	}
}

// TestBufferEditOwnsAfterPop checks the privateFrom watermark across
// PopMin: entries retained from before a clone stay copy-on-write even
// as the window slides.
func TestBufferEditOwnsAfterPop(t *testing.T) {
	b := NewBuffer()
	for i := 0; i < 4; i++ {
		b.AppendT(Transient{Kind: TStore, Src: isa.R(isa.Reg(i)), Args: []isa.Operand{isa.ImmW(mem.Word(i))}})
	}
	c := b.Clone()
	b.PopMin()
	et, _ := b.Edit(2)
	et.ValKnown = true
	if ct, _ := c.Get(2); ct.ValKnown {
		t.Fatal("post-pop Edit aliased the clone")
	}
}

// TestBufferFenceBeforeMatchesScan checks the O(1) fence side
// condition against a linear scan of the live entries over random
// append, set, truncate, pop and clone sequences: each buffer's
// lowest-fence index must survive every operation on it and on its
// clones.
func TestBufferFenceBeforeMatchesScan(t *testing.T) {
	kinds := []TKind{TFence, TFence, TValue, TOp, TBr, TStore}
	scan := func(b *Buffer, i int) bool {
		for j := b.Min(); j < i && j <= b.Max(); j++ {
			if e, _ := b.Get(j); e.Kind == TFence {
				return true
			}
		}
		return false
	}
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 200; run++ {
		bufs := []*Buffer{NewBuffer()}
		for op := 0; op < 60; op++ {
			b := bufs[rng.Intn(len(bufs))]
			switch r := rng.Intn(10); {
			case r < 4:
				b.AppendT(Transient{Kind: kinds[rng.Intn(len(kinds))]})
			case r == 4 && b.Len() > 0:
				b.SetT(b.Min()+rng.Intn(b.Len()), Transient{Kind: kinds[rng.Intn(len(kinds))]})
			case r == 5:
				b.TruncateFrom(b.Min() - 1 + rng.Intn(b.Len()+3))
			case r == 6:
				b.PopMin()
			case r == 7 && b.Len() > 0:
				b.PopMinN(1 + rng.Intn(b.Len()))
			case r >= 8 && len(bufs) < 6:
				bufs = append(bufs, b.Clone())
			}
			for k, c := range bufs {
				for i := c.Min() - 2; i <= c.Max()+2; i++ {
					if got, want := c.FenceBefore(i), scan(c, i); got != want {
						t.Fatalf("run %d op %d buffer %d: FenceBefore(%d) = %t, scan says %t\n%s", run, op, k, i, got, want, c)
					}
				}
			}
		}
	}
}

// TestRSBCloneIndependence covers the shared-tail journal: appends and
// rollbacks on either side of a fork stay invisible to the other.
func TestRSBCloneIndependence(t *testing.T) {
	s := NewRSB(RSBAttackerChoice)
	s.Push(1, 4)
	s.Push(2, 5)
	c := s.Clone()

	s.Pop(3)
	if top, _ := c.Top(); top != 5 {
		t.Fatalf("clone top = %d after original's pop, want 5", top)
	}
	c.Push(3, 9)
	if top, _ := s.Top(); top != 4 {
		t.Fatalf("original top = %d after clone's push, want 4", top)
	}
	// Rollback on the clone (a reslice) must not disturb the original.
	c.Rollback(2)
	if top, _ := c.Top(); top != 4 {
		t.Fatalf("clone top after rollback = %d, want 4", top)
	}
	if s.Depth() != 1 { // push 4, push 5, pop
		t.Fatalf("original depth = %d, want 1", s.Depth())
	}
	// Append-after-rollback lands in an owned array, not the shared one.
	c.Push(2, 8)
	if top, _ := s.Top(); top != 4 {
		t.Fatalf("original top = %d after clone's post-rollback push, want 4", top)
	}
}

// TestFingerprintStableAcrossCOWChains replays one schedule on a
// machine that is re-cloned at every step and on a machine stepped
// directly: the two must fingerprint identically at every step, so the
// dedup table sees the same signatures whether or not states passed
// through clone chains (and arenas, scratch buffers, and watermarks
// never leak into the hash).
func TestFingerprintStableAcrossCOWChains(t *testing.T) {
	schedule := Schedule{
		FetchGuess(true), Fetch(), Fetch(), Execute(2),
		ExecuteValue(3), ExecuteAddr(3), Execute(1), Retire(),
	}
	direct := fingerprintMachine()
	chained := fingerprintMachine()
	for i, d := range schedule {
		if _, err := direct.Step(d); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		chained = chained.Clone() // fork before every step, like the explorer
		if _, err := chained.Step(d); err != nil {
			t.Fatalf("chained step %d: %v", i, err)
		}
		if got, want := chained.Fingerprint(), direct.Fingerprint(); got != want {
			t.Fatalf("step %d: chained fingerprint %#x != direct %#x", i, got, want)
		}
	}
	// And the abandoned ancestors still fingerprint like a fresh replay
	// of their own prefix (no retroactive corruption).
	replay := fingerprintMachine()
	if replay.Fingerprint() != fingerprintMachine().Fingerprint() {
		t.Fatal("fresh machines must agree")
	}
}

// TestMachineCloneSemanticsPreserved replays a full schedule on a
// cloned machine and its original: stepping the clone must leave the
// original's configuration byte-for-byte intact (ApproxEqual + PC +
// buffer rendering), the property the exploration tree depends on.
func TestMachineCloneSemanticsPreserved(t *testing.T) {
	m := fingerprintMachine()
	if _, err := m.Step(FetchGuess(true)); err != nil {
		t.Fatal(err)
	}
	before := m.Fingerprint()
	c := m.Clone()
	for _, d := range []Directive{Fetch(), Fetch(), Execute(2), ExecuteValue(3), ExecuteAddr(3)} {
		if _, err := c.Step(d); err != nil {
			t.Fatal(err)
		}
	}
	if m.Fingerprint() != before {
		t.Fatal("stepping a clone changed the original's fingerprint")
	}
}
