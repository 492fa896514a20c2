package core

import (
	"math/rand"
	"slices"
	"testing"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
	"pitchfork/internal/symx"
)

// TestBufferCloneIndependence drives the copy-on-write reorder buffer
// through every mutating operation on both sides of a fork and checks
// the sibling never observes the change.
func TestBufferCloneIndependence(t *testing.T) {
	b := NewBuffer[Transient]()
	b.AppendT(Transient{Kind: TStore, Src: isa.R(1), Args: []isa.Operand{isa.ImmW(0x40)}})
	b.AppendT(Transient{Kind: TLoad, Dst: 2, Args: []isa.Operand{isa.ImmW(0x41)}})
	b.AppendT(Transient{Kind: TFence})

	c := cloneOf(b)

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

	// Array-level mutation: SetT and AppendT on the original must not
	// show up in the clone.
	b.SetT(2, Transient{Kind: TValue, Dst: 2, Val: mem.Pub(5)})
	b.AppendT(Transient{Kind: TFence})
	if ct, _ := c.Get(2); ct.Kind != TLoad {
		t.Fatal("SetT on the original leaked into the clone")
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
// PopMinN: entries retained from before a clone stay copy-on-write even
// as the window slides.
func TestBufferEditOwnsAfterPop(t *testing.T) {
	b := NewBuffer[Transient]()
	for i := 0; i < 4; i++ {
		b.AppendT(Transient{Kind: TStore, Src: isa.R(isa.Reg(i)), Args: []isa.Operand{isa.ImmW(mem.Word(i))}})
	}
	c := cloneOf(b)
	b.PopMinN(1)
	et, _ := b.Edit(2)
	et.ValKnown = true
	if ct, _ := c.Get(2); ct.ValKnown {
		t.Fatal("post-pop Edit aliased the clone")
	}
}

// TestBufferFenceBeforeMatchesScan checks the O(1) fence side
// condition and the pending-branch index against linear scans of the
// live entries over random append, set, edit, truncate, pop and clone
// sequences: each buffer's lowest-fence index and Branches list must
// survive every operation on it and on its clones. A list obtained
// before an operation on another buffer must still read the same
// after it, so a write to one buffer's index never shows through a
// clone's. Every buffer is also checked against a plain model of its
// entries after every operation, so neither an in-place SetT on a
// private entry nor an arena copy of a shared one may ever change what
// a clone sees. Both SetT paths must be taken, SetT must both create
// and remove branches, PopMinN must drop some, and some list must
// outgrow the inline slots.
func TestBufferFenceBeforeMatchesScan(t *testing.T) {
	kinds := []TKind{TFence, TFence, TValue, TOp, TBr, TBr, TBr, TStore}
	scan := func(b *Buffer[Transient, *Transient], i int) bool {
		for j := b.Min(); j < i && j <= b.Max(); j++ {
			if e, _ := b.Get(j); e.Kind == TFence {
				return true
			}
		}
		return false
	}
	scanBranches := func(b *Buffer[Transient, *Transient]) []int {
		var out []int
		for j, e := range b.All() {
			if e.Kind == TBr {
				out = append(out, j)
			}
		}
		return out
	}
	// model is a buffer's expected contents: the entries' kinds and
	// Target tags (unique per write), with the index of the first.
	type model struct {
		base    int
		entries []Transient
	}
	tag := isa.Addr(0)
	fresh := func(rng *rand.Rand) Transient {
		tag++
		return Transient{Kind: kinds[rng.Intn(len(kinds))], Target: tag}
	}
	inPlace, copied, created, removed, popped, longest := 0, 0, 0, 0, 0, 0
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 200; run++ {
		bufs := []*Buffer[Transient, *Transient]{NewBuffer[Transient]()}
		models := []*model{{base: 1}}
		for op := 0; op < 60; op++ {
			n := rng.Intn(len(bufs))
			b, md := bufs[n], models[n]
			// The other buffers' lists as returned (aliasing their
			// index) and as copied, to compare after the operation.
			before := make([][]int, len(bufs))
			kept := make([][]int, len(bufs))
			for k, c := range bufs {
				before[k] = c.Branches()
				kept[k] = append([]int(nil), before[k]...)
			}
			switch r := rng.Intn(12); {
			case r < 4:
				// One entry, or a run of them, as eager fetch places.
				for k := 1 + (r/3)*rng.Intn(16); k > 0; k-- {
					e := fresh(rng)
					b.AppendT(e)
					md.entries = append(md.entries, e)
				}
			case r <= 5 && b.Len() > 0:
				// Half the time aim at the private tail, if there is one.
				i := b.Min() + rng.Intn(b.Len())
				if r == 5 && b.privateFrom <= b.Max() {
					lo := max(b.privateFrom, b.Min())
					i = lo + rng.Intn(b.Max()-lo+1)
				}
				if i >= b.privateFrom {
					inPlace++
				} else {
					copied++
				}
				e := fresh(rng)
				switch was := md.entries[i-md.base].Kind == TBr; {
				case !was && e.Kind == TBr:
					created++
				case was && e.Kind != TBr:
					removed++
				}
				b.SetT(i, e)
				md.entries[i-md.base] = e
			case r == 6 && b.Len() > 0:
				i := b.Min() + rng.Intn(b.Len())
				tag++
				et, _ := b.Edit(i)
				et.Target = tag
				md.entries[i-md.base].Target = tag
			case r == 7:
				i := b.Min() - 1 + rng.Intn(b.Len()+3)
				b.TruncateFrom(i)
				md.entries = md.entries[:min(max(i-md.base, 0), len(md.entries))]
			case r == 8 && b.Len() > 0:
				if md.entries[0].Kind == TBr {
					popped++
				}
				b.PopMinN(1)
				md.entries, md.base = md.entries[1:], md.base+1
			case r == 9 && b.Len() > 0:
				k := 1 + rng.Intn(b.Len())
				for _, e := range md.entries[:k] {
					if e.Kind == TBr {
						popped++
					}
				}
				b.PopMinN(k)
				md.entries, md.base = md.entries[k:], md.base+k
			case r >= 10 && len(bufs) < 6:
				bufs = append(bufs, cloneOf(b))
				models = append(models, &model{base: md.base, entries: append([]Transient(nil), md.entries...)})
			}
			for k, c := range bufs {
				md := models[k]
				if c.Min() != md.base || c.Len() != len(md.entries) {
					t.Fatalf("run %d op %d buffer %d: domain [%d,%d], model [%d,%d]", run, op, k, c.Min(), c.Max(), md.base, md.base+len(md.entries)-1)
				}
				for j, want := range md.entries {
					if got, _ := c.Get(md.base + j); got.Kind != want.Kind || got.Target != want.Target {
						t.Fatalf("run %d op %d buffer %d: entry %d is %v/%d, model says %v/%d", run, op, k, md.base+j, got.Kind, got.Target, want.Kind, want.Target)
					}
				}
				for i := c.Min() - 2; i <= c.Max()+2; i++ {
					if got, want := c.FenceBefore(i), scan(c, i); got != want {
						t.Fatalf("run %d op %d buffer %d: FenceBefore(%d) = %t, scan says %t\n%s", run, op, k, i, got, want, c)
					}
				}
				if got, want := c.Branches(), scanBranches(c); !slices.Equal(got, want) {
					t.Fatalf("run %d op %d buffer %d: Branches() = %v, scan says %v\n%s", run, op, k, got, want, c)
				}
				longest = max(longest, len(c.Branches()))
				if k != n && k < len(before) && (!slices.Equal(before[k], kept[k]) || !slices.Equal(c.Branches(), kept[k])) {
					t.Fatalf("run %d op %d: writing buffer %d changed buffer %d's branch list from %v to %v (old slice now %v)", run, op, n, k, kept[k], c.Branches(), before[k])
				}
			}
		}
	}
	if inPlace == 0 || copied == 0 {
		t.Fatalf("SetT on private entries %d times, on shared ones %d times; want both", inPlace, copied)
	}
	t.Logf("SetT in place %d, copied %d; branches created %d, removed %d, popped %d; longest list %d", inPlace, copied, created, removed, popped, longest)
	if created == 0 || removed == 0 || popped == 0 || longest <= branchInline {
		t.Fatalf("SetT created %d branches and removed %d, PopMinN dropped %d, longest list %d; want all, and a list longer than %d", created, removed, popped, longest, branchInline)
	}
}

// TestBufferHashSumMatchesScratch checks the reorder buffer's
// incremental hash sum in both value domains: over random AppendT,
// SetT, Edit, TruncateFrom and PopMinN sequences on copy-on-write
// clone chains, a hashing buffer's HashSum must equal the sum of the
// entry hash over its live entries, computed from scratch. Hashing
// starts at a random point of a run, as the first fingerprint starts
// it mid-exploration; clones made later inherit it. The sum is read
// only now and then, so an Edit is often followed by further
// operations before anything re-adds the edited entry.
func TestBufferHashSumMatchesScratch(t *testing.T) {
	t.Run("concrete", func(t *testing.T) {
		checkBufferHashSum(t, mixValue, func(rng *rand.Rand) mem.Value {
			return mem.Value{W: mem.Word(rng.Intn(4)), L: mem.Label(rng.Intn(2))}
		})
	})
	t.Run("symbolic", func(t *testing.T) {
		mix := func(h uint64, e symx.Expr) uint64 { return mem.Mix64(h ^ symx.Fingerprint(e)) }
		checkBufferHashSum(t, mix, func(rng *rand.Rand) symx.Expr {
			if rng.Intn(2) == 0 {
				return symx.NewVar("x", mem.Label(rng.Intn(2)))
			}
			return symx.CW(mem.Word(rng.Intn(4)))
		})
	})
}

func checkBufferHashSum[V any](t *testing.T, mix func(uint64, V) uint64, value func(*rand.Rand) V) {
	hash := entryHash(mix)
	scratch := func(b *Buffer[TransientOf[V], *TransientOf[V]]) uint64 {
		var sum uint64
		for i, e := range b.All() {
			sum += hash(i, e)
		}
		return sum
	}
	kinds := []TKind{TFence, TValue, TOp, TBr, TStore, TLoad}
	fresh := func(rng *rand.Rand) TransientOf[V] {
		e := TransientOf[V]{Kind: kinds[rng.Intn(len(kinds))], Dst: isa.Reg(rng.Intn(3)), Val: value(rng), PP: isa.Addr(rng.Intn(4))}
		if rng.Intn(2) == 0 {
			e.Args = []isa.Operand{isa.R(isa.Reg(rng.Intn(3)))}
		}
		return e
	}
	rng := rand.New(rand.NewSource(3))
	checks, edits := 0, 0
	for run := 0; run < 200; run++ {
		bufs := []*Buffer[TransientOf[V], *TransientOf[V]]{NewBuffer[TransientOf[V]]()}
		startAt := rng.Intn(20)
		for op := 0; op < 60; op++ {
			b := bufs[rng.Intn(len(bufs))]
			if op == startAt {
				b.StartHashing(hash)
			}
			switch r := rng.Intn(12); {
			case r < 4:
				for k := 1 + rng.Intn(4); k > 0; k-- {
					b.AppendT(fresh(rng))
				}
			case r == 4 && b.Len() > 0:
				b.SetT(b.Min()+rng.Intn(b.Len()), fresh(rng))
			case r <= 6 && b.Len() > 0:
				// Edit never turns an entry into or out of a fence or a
				// branch; it resolves fields in place.
				e, _ := b.Edit(b.Min() + rng.Intn(b.Len()))
				e.ValKnown, e.SVal, e.PredFrom = true, value(rng), rng.Intn(8)
				edits++
			case r == 7:
				b.TruncateFrom(b.Min() - 1 + rng.Intn(b.Len()+3))
			case r == 8 && b.Len() > 0:
				b.PopMinN(1 + rng.Intn(b.Len()))
			case r >= 9 && len(bufs) < 6:
				bufs = append(bufs, cloneOf(b))
			}
			if rng.Intn(3) != 0 {
				continue
			}
			for k, c := range bufs {
				if !c.Hashing() {
					continue
				}
				checks++
				if got, want := c.HashSum(), scratch(c); got != want {
					t.Fatalf("run %d op %d buffer %d: HashSum %#x, from scratch %#x\n%s", run, op, k, got, want, c)
				}
			}
		}
	}
	if checks == 0 || edits == 0 {
		t.Fatalf("%d sum checks over %d edits; want both", checks, edits)
	}
}

// TestBufferBranchesAllocationFree checks that reading the
// pending-branch index allocates nothing, whether the list is held
// inline or has outgrown the inline slots.
func TestBufferBranchesAllocationFree(t *testing.T) {
	for _, n := range []int{0, 1, branchInline, branchInline + 3} {
		b := NewBuffer[Transient]()
		for k := 0; k < n; k++ {
			b.AppendT(Transient{Kind: TValue})
			b.AppendT(Transient{Kind: TBr})
		}
		var got []int
		if allocs := testing.AllocsPerRun(100, func() { got = b.Branches() }); allocs != 0 {
			t.Errorf("%d pending branches: Branches() made %.1f allocations, want 0", n, allocs)
		}
		if len(got) != n {
			t.Errorf("%d pending branches: Branches() = %v", n, got)
		}
	}
}

// TestRSBCloneIndependence covers the shared-tail journal: appends and
// rollbacks on either side of a fork stay invisible to the other.
func TestRSBCloneIndependence(t *testing.T) {
	s := NewRSB(RSBAttackerChoice)
	s.Push(1, 4)
	s.Push(2, 5)
	c := cloneOf(s)

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

// TestRSBHashSumMatchesScratch checks the RSB journal's incremental
// hash sum against a from-scratch sum over random pushes, pops,
// rollbacks and clones, with the sum started at a random point of each
// run as the first fingerprint starts it.
func TestRSBHashSumMatchesScratch(t *testing.T) {
	scratch := func(s *RSB) uint64 {
		var sum uint64
		for _, e := range s.entries {
			sum += e.hash()
		}
		return sum
	}
	rng := rand.New(rand.NewSource(5))
	checks := 0
	for run := 0; run < 200; run++ {
		rsbs, next := []*RSB{NewRSB(RSBAttackerChoice)}, []int{1}
		startAt := rng.Intn(20)
		for op := 0; op < 40; op++ {
			k := rng.Intn(len(rsbs))
			s := rsbs[k]
			if op == startAt {
				s.HashSum()
			}
			switch r := rng.Intn(6); {
			case r < 2:
				s.Push(next[k], isa.Addr(rng.Intn(8)))
				next[k]++
			case r < 4:
				s.Pop(next[k])
				next[k]++
			case r == 4:
				i := 1 + rng.Intn(next[k])
				s.Rollback(i)
				next[k] = min(next[k], i)
			case len(rsbs) < 6:
				rsbs, next = append(rsbs, cloneOf(s)), append(next, next[k])
			}
			for k, c := range rsbs {
				checks++
				if got, want := c.HashSum(), scratch(c); got != want {
					t.Fatalf("run %d op %d journal %d: HashSum %#x, from scratch %#x (%s)", run, op, k, got, want, c)
				}
			}
		}
	}
	if checks == 0 {
		t.Fatal("no journal was ever hashing")
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

// cloneOf returns an O(1) clone of x made through its CloneTo.
func cloneOf[T any, P interface {
	*T
	CloneTo(*T)
}](x P) P {
	c := P(new(T))
	x.CloneTo(c)
	return c
}
