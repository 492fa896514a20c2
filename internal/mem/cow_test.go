package mem

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestMemoryCloneIndependenceDeepChains mutates parent and child on
// both sides of every fork across chains long enough to cross the
// flatten boundary: no write on one side may ever be visible on the
// other, and Len must track the effective domain exactly.
func TestMemoryCloneIndependenceDeepChains(t *testing.T) {
	root := NewMemory()
	for i := 0; i < 32; i++ {
		root.Write(Word(i), Pub(uint64(i)))
	}
	cur := root
	clones := []*Memory{root}
	for g := 0; g < 3*MaxChainDepth; g++ {
		c := cloneOf(cur)
		// Diverge: the child overwrites one inherited cell and maps a
		// fresh one; the parent overwrites a different inherited cell.
		c.Write(Word(g%32), Sec(uint64(1000+g)))
		c.Write(Word(100+g), Pub(uint64(g)))
		cur.Write(Word((g+7)%32), Pub(uint64(2000+g)))
		clones = append(clones, c)
		cur = c
	}
	// The child's writes never leak into any ancestor.
	for g, c := range clones[:len(clones)-1] {
		if c.Contains(Word(100 + g)) {
			t.Fatalf("generation %d sees a descendant's fresh cell", g)
		}
	}
	// The last clone sees every inherited cell plus its own writes.
	last := clones[len(clones)-1]
	wantLen := 32 + (3 * MaxChainDepth) // inherited domain + one fresh cell per generation
	if last.Len() != wantLen {
		t.Fatalf("Len = %d, want %d", last.Len(), wantLen)
	}
	if v := last.Read(Word(100 + 3*MaxChainDepth - 1)); v != Pub(uint64(3*MaxChainDepth-1)) {
		t.Fatalf("last clone lost its own write: %v", v)
	}
}

// TestMemoryParentWriteInvisibleToChild is the other direction of
// clone independence: writes to the parent after the fork must not
// appear in the child.
func TestMemoryParentWriteInvisibleToChild(t *testing.T) {
	p := NewMemory()
	p.Write(1, Pub(10))
	c := cloneOf(p)
	p.Write(1, Pub(20))
	p.Write(2, Pub(30))
	if v := c.Read(1); v != Pub(10) {
		t.Fatalf("child sees parent's post-fork overwrite: %v", v)
	}
	if c.Contains(2) {
		t.Fatal("child sees parent's post-fork fresh cell")
	}
}

// TestMemoryHashSumStableAcrossChains checks fingerprint stability:
// however a memory's contents were reached — straight-line writes,
// clone chains with shadowed cells, flattened or not — equal contents
// produce equal HashSums, and incremental maintenance agrees with a
// from-scratch computation.
func TestMemoryHashSumStableAcrossChains(t *testing.T) {
	chained := NewMemory()
	for i := 0; i < 8; i++ {
		chained.Write(Word(i), Pub(uint64(i)))
	}
	for g := 0; g < 2*MaxChainDepth; g++ {
		chained = cloneOf(chained)
		chained.Write(Word(g%8), Sec(uint64(g)))
		chained.Write(Word(50+g), Pub(uint64(g)))
	}
	// Rebuild the same contents flat, hashing only at the end.
	flat := NewMemory()
	for _, a := range chained.Addresses() {
		flat.Write(a, chained.Read(a))
	}
	if !chained.Equal(flat) {
		t.Fatal("rebuild must be Equal")
	}
	if chained.HashSum() != flat.HashSum() {
		t.Fatalf("HashSum diverged: chained %#x, flat %#x", chained.HashSum(), flat.HashSum())
	}
}

// TestRegisterFileCloneIndependenceDeepChains mirrors the memory test
// for the register file, including HashSum agreement between a COW
// chain and a fresh rebuild.
func TestRegisterFileCloneIndependenceDeepChains(t *testing.T) {
	f := NewRegisterFile()
	_ = f.HashSum()
	for r := Reg(0); r < 8; r++ {
		f.Write(r, Pub(uint64(r)))
	}
	parent := f
	for g := 0; g < 2*MaxChainDepth; g++ {
		c := cloneOf(parent)
		c.Write(Reg(g%8), Sec(uint64(g)))
		parent.Write(Reg((g+3)%8), Pub(uint64(100+g)))
		if c.Read(Reg((g+3)%8)) == Pub(uint64(100+g)) && (g+3)%8 != g%8 {
			t.Fatalf("generation %d: parent write visible in child", g)
		}
		parent = c
	}
	flat := NewRegisterFile()
	for _, r := range parent.Registers() {
		flat.Write(r, parent.Read(r))
	}
	if !parent.Equal(flat) || parent.HashSum() != flat.HashSum() {
		t.Fatalf("chained register file must Equal its rebuild with the same HashSum")
	}
}

// TestRegisterFileMatchesMapModel drives random Write/Clone/Read
// sequences over a family of register files, each beside a plain-map
// reference: low registers, registers above 255, and the conventional
// RMSK/RSP/RTMP at the top of the range. After every operation every
// file must agree with its own reference on Read, Registers, LowEquiv,
// Equal and the incremental HashSum against a from-scratch sum, so
// each side of a clone stays isolated from the other's writes.
func TestRegisterFileMatchesMapModel(t *testing.T) {
	regs := []Reg{0, 1, 2, 7, 15, 255, 256, 300, 4096, 0x8000, RMSK, RSP, RTMP}
	read := func(m map[Reg]Value, r Reg) Value {
		if v, ok := m[r]; ok {
			return v
		}
		return Pub(0)
	}
	// agree reports whether eq holds for every register in either model.
	agree := func(a, b map[Reg]Value, eq func(v, w Value) bool) bool {
		for _, m := range []map[Reg]Value{a, b} {
			for r := range m {
				if !eq(read(a, r), read(b, r)) {
					return false
				}
			}
		}
		return true
	}
	lowEq := func(v, w Value) bool { return v.L == w.L && (!v.L.IsPublic() || v.W == w.W) }
	exactEq := func(v, w Value) bool { return v == w }
	scratchSum := func(m map[Reg]Value) uint64 {
		var sum uint64
		for r, v := range m {
			sum += cellHash(uint64(r), v)
		}
		return sum
	}
	rng := rand.New(rand.NewSource(7))
	for run := 0; run < 100; run++ {
		files := []*RegisterFile{NewRegisterFile()}
		models := []map[Reg]Value{{}}
		for op := 0; op < 80; op++ {
			k := rng.Intn(len(files))
			f := files[k]
			switch r := rng.Intn(10); {
			case r < 6:
				reg := regs[rng.Intn(len(regs))]
				// Few words and labels, so files often compare equal.
				v := V(uint64(rng.Intn(3)), Label(rng.Intn(2)))
				f.Write(reg, v)
				models[k][reg] = v
			case r < 8 && len(files) < 8:
				files = append(files, cloneOf(f))
				models = append(models, maps.Clone(models[k]))
			}
			for i, f := range files {
				m := models[i]
				for _, reg := range regs {
					if got, want := f.Read(reg), read(m, reg); got != want {
						t.Fatalf("run %d op %d file %d: Read(%#x) = %v, model %v", run, op, i, reg, got, want)
					}
				}
				want := slices.Sorted(maps.Keys(m))
				if got := f.Registers(); !slices.Equal(got, want) {
					t.Fatalf("run %d op %d file %d: Registers() = %v, model %v", run, op, i, got, want)
				}
				if f.HashSum() != scratchSum(m) {
					t.Fatalf("run %d op %d file %d: incremental HashSum differs from a from-scratch sum", run, op, i)
				}
				for j, g := range files {
					if got, want := f.LowEquiv(g), agree(m, models[j], lowEq); got != want {
						t.Fatalf("run %d op %d: files %d, %d LowEquiv = %t, model %t", run, op, i, j, got, want)
					}
					if got, want := f.Equal(g), agree(m, models[j], exactEq); got != want {
						t.Fatalf("run %d op %d: files %d, %d Equal = %t, model %t", run, op, i, j, got, want)
					}
				}
			}
		}
		for i, f := range files {
			if f.HashSum() != scratchSum(models[i]) {
				t.Fatalf("run %d file %d: HashSum differs from a from-scratch sum", run, i)
			}
		}
	}
}

// TestCellFileMatchesMapModel checks the generic cell file under both
// register files directly: random Set/Fork sequences over a family of
// files, each beside a plain-map model, over low registers, registers
// above 255 and RMSK/RSP/RTMP. Set must report the model's previous
// binding; after every operation every file must agree with its model
// on Lookup, Len and Cells (sorted by register), and cells handed out
// before a Set on any file must not change — forks share the slice, so
// the first Set after a fork must copy it.
func TestCellFileMatchesMapModel(t *testing.T) {
	regs := []Reg{0, 1, 2, 7, 15, 255, 256, 300, 4096, 0x8000, RMSK, RSP, RTMP}
	rng := rand.New(rand.NewSource(11))
	for run := 0; run < 100; run++ {
		files := []*CellFile[int]{{}}
		models := []map[Reg]int{{}}
		for op := 0; op < 80; op++ {
			n := rng.Intn(len(files))
			held := make([][]Cell[int], len(files))
			kept := make([][]Cell[int], len(files))
			for i, f := range files {
				held[i] = f.Cells()
				kept[i] = slices.Clone(held[i])
			}
			if rng.Intn(4) > 0 || len(files) >= 8 {
				reg, v := regs[rng.Intn(len(regs))], rng.Intn(3)
				old, existed := files[n].Set(reg, v)
				if want, ok := models[n][reg]; existed != ok || old != want {
					t.Fatalf("run %d op %d file %d: Set(%#x) returned %d/%t, model %d/%t", run, op, n, reg, old, existed, want, ok)
				}
				models[n][reg] = v
			} else {
				fork := files[n].Fork()
				files = append(files, &fork)
				models = append(models, maps.Clone(models[n]))
			}
			for i, f := range files {
				m := models[i]
				for _, reg := range regs {
					got, ok := f.Lookup(reg)
					if want, wok := m[reg]; ok != wok || got != want {
						t.Fatalf("run %d op %d file %d: Lookup(%#x) = %d/%t, model %d/%t", run, op, i, reg, got, ok, want, wok)
					}
				}
				if f.Len() != len(m) {
					t.Fatalf("run %d op %d file %d: Len = %d, model %d", run, op, i, f.Len(), len(m))
				}
				want := make([]Cell[int], 0, len(m))
				for _, r := range slices.Sorted(maps.Keys(m)) {
					want = append(want, Cell[int]{R: r, Val: m[r]})
				}
				if got := f.Cells(); !slices.Equal(got, want) {
					t.Fatalf("run %d op %d file %d: Cells = %v, model %v", run, op, i, got, want)
				}
				if i < len(held) && i != n && !slices.Equal(held[i], kept[i]) {
					t.Fatalf("run %d op %d file %d: a Set on file %d changed its cells", run, op, i, n)
				}
			}
		}
	}
}

// TestRegisterFileCompareAllocationFree pins the satellite fix: Equal
// and LowEquiv on register files must not allocate, even across clone
// chains (they used to build a per-call union set).
func TestRegisterFileCompareAllocationFree(t *testing.T) {
	a, b := NewRegisterFile(), NewRegisterFile()
	for r := Reg(0); r < 16; r++ {
		a.Write(r, Pub(uint64(r)))
		b.Write(r, Pub(uint64(r)))
	}
	a = cloneOf(a) // compare across a chain, not just flat maps
	a.Write(3, Pub(3))
	if avg := testing.AllocsPerRun(100, func() {
		if !a.Equal(b) || !a.LowEquiv(b) {
			t.Fatal("files must compare equal")
		}
	}); avg != 0 {
		t.Fatalf("Equal/LowEquiv allocated %.1f objects per run, want 0", avg)
	}
}

// TestMemoryEquivalencePropertiesOnChains re-runs the original
// LowEquiv property on chained memories: reflexivity and symmetry
// must survive the representation change.
func TestMemoryEquivalencePropertiesOnChains(t *testing.T) {
	gen := func(seed uint64) *Memory {
		m := NewMemory()
		x := seed
		for i := 0; i < 24; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			l := Public
			if x&1 == 1 {
				l = Secret
			}
			m.Write(Word(i%12), V(x>>8, l))
			if i%5 == 0 {
				m = cloneOf(m)
			}
		}
		return m
	}
	f := func(seed uint64) bool {
		m, n := gen(seed), gen(seed^0xbeef)
		return m.LowEquiv(m) && m.Equal(m) && m.LowEquiv(n) == n.LowEquiv(m) && m.Equal(n) == n.Equal(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFrozenMemoryCloneWritesNothing: after Freeze, cloning a memory
// leaves every field of it as it was, so concurrent clones of a shared
// image (run this under -race) need no lock; each clone keeps the
// image's cells and hash sum and writes only to itself.
func TestFrozenMemoryCloneWritesNothing(t *testing.T) {
	img := NewMemory()
	for i := 0; i < 64; i++ {
		img.Write(Word(i), Value{W: Word(i * 3), L: Label(i % 2)})
	}
	img.Freeze()
	parent, depth, count, sum := img.m.parent, img.m.depth, img.m.count, img.sum
	check := func() {
		if img.m.parent != parent || img.m.cells != nil || img.m.depth != depth || img.m.count != count || img.sum != sum {
			t.Errorf("cloning the frozen image changed it")
		}
	}
	done := make(chan struct{})
	for g := range 4 {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range 50 {
				c := cloneOf(img)
				if c.HashSum() != sum || c.Read(7) != (Value{W: 21, L: 1}) {
					t.Errorf("goroutine %d: clone differs from the image", g)
				}
				c.Write(Word(i), Pub(uint64(g)))
			}
		}()
	}
	for range 4 {
		<-done
	}
	check()
	if depth >= MaxChainDepth {
		t.Fatalf("a frozen image is %d layers deep; at MaxChainDepth its clones would flatten it", depth)
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
