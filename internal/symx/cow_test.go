package symx

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

// TestSymMemoryCloneIndependence forks the symbolic memory across
// chains deeper than the flatten threshold and checks writes never
// cross a fork in either direction.
func TestSymMemoryCloneIndependence(t *testing.T) {
	m := NewMemory()
	for i := 0; i < 8; i++ {
		m.Write(mem.Word(i), CW(uint64(i)))
	}
	x := NewVar("x", mem.Secret)
	cur := m
	for g := 0; g < 3*mem.MaxChainDepth; g++ {
		c := cur.Clone()
		before := Fingerprint(cur.Read(mem.Word(g % 8)))
		c.Write(mem.Word(g%8), x)
		cur.Write(mem.Word(100+g), CW(uint64(g)))
		if c.Contains(mem.Word(100 + g)) {
			t.Fatalf("generation %d: parent's post-fork write visible in child", g)
		}
		if Fingerprint(cur.Read(mem.Word(g%8))) != before {
			t.Fatalf("generation %d: child's write visible in parent", g)
		}
		cur = c
	}
	if len(cur.SecretAddresses()) != 8 {
		t.Fatalf("SecretAddresses = %v, want all 8 rewritten cells", cur.SecretAddresses())
	}
}

// TestSymMemoryHashSumIncrementalMatchesFresh checks the incremental
// HashSum maintained through clone chains equals a from-scratch
// rebuild — the fingerprint-stability requirement for the dedup table.
func TestSymMemoryHashSumIncrementalMatchesFresh(t *testing.T) {
	m := NewMemory()
	_ = m.HashSum() // activate incremental maintenance before any write
	x := NewVar("x", mem.Public)
	for i := 0; i < 6; i++ {
		m.Write(mem.Word(i), Apply(eqOp(), x, CW(uint64(i))))
	}
	for g := 0; g < 2*mem.MaxChainDepth; g++ {
		m = m.Clone()
		m.Write(mem.Word(g%6), CW(uint64(g)))
	}
	fresh := NewMemory()
	for _, a := range m.Addresses() {
		fresh.Write(a, m.Read(a))
	}
	if m.HashSum() != fresh.HashSum() {
		t.Fatalf("incremental HashSum %#x != fresh %#x", m.HashSum(), fresh.HashSum())
	}
}

// TestRegFileCloneIndependenceAndHash mirrors the memory tests for the
// symbolic register file.
func TestRegFileCloneIndependenceAndHash(t *testing.T) {
	f := NewRegFile()
	_ = f.HashSum()
	x := NewVar("x", mem.Secret)
	for r := 0; r < 6; r++ {
		f.Write(isa.Reg(r), CW(uint64(r)))
	}
	parent := f
	for g := 0; g < 2*mem.MaxChainDepth; g++ {
		c := parent.Clone()
		c.Write(isa.Reg(g%6), x)
		parent.Write(isa.Reg((g+1)%6), CW(uint64(100+g)))
		if e, ok := c.Read(isa.Reg((g + 1) % 6)); ok {
			if cv, conc := e.Concrete(); conc && cv.W == uint64(100+g) && (g+1)%6 != g%6 {
				t.Fatalf("generation %d: parent write visible in child", g)
			}
		}
		parent = c
	}
	fresh := NewRegFile()
	for r := 0; r < 6; r++ {
		e, _ := parent.Read(isa.Reg(r))
		fresh.Write(isa.Reg(r), e)
	}
	if parent.Len() != 6 {
		t.Fatalf("Len = %d, want 6", parent.Len())
	}
	if parent.HashSum() != fresh.HashSum() {
		t.Fatalf("incremental HashSum %#x != fresh %#x", parent.HashSum(), fresh.HashSum())
	}
}

// TestSecretIndexMatchesScan drives random Write/Clone sequences over
// a family of symbolic memories, each beside a plain-map model, with
// cells flipping public↔secret↔public. After every operation every
// live memory's SecretAddresses must equal a from-scratch sorted scan
// of its model, and a set handed out before a write on any memory must
// not change: clones share the index, so a write may only ever install
// a fresh one. Reading the index allocates nothing.
func TestSecretIndexMatchesScan(t *testing.T) {
	addrs := []mem.Word{0, 1, 2, 7, 0x40, 0x41, 1 << 40}
	x := NewVar("x", mem.Public)
	k := NewVar("k", mem.Secret)
	exprs := []Expr{
		CW(0), CW(5), x, Apply(isa.OpAdd, x, CW(1)), // public
		C(mem.Sec(9)), k, Apply(isa.OpAdd, x, k), // secret
	}
	scan := func(m map[mem.Word]Expr) []mem.Word {
		var out []mem.Word
		for a, e := range m {
			if e.Label().IsSecret() {
				out = append(out, a)
			}
		}
		slices.Sort(out)
		return out
	}
	rng := rand.New(rand.NewSource(3))
	flips := 0
	for run := 0; run < 200; run++ {
		mems := []*Memory{NewMemory()}
		models := []map[mem.Word]Expr{{}}
		for op := 0; op < 60; op++ {
			n := rng.Intn(len(mems))
			held := make([][]mem.Word, len(mems))
			for i, m := range mems {
				held[i] = m.SecretAddresses()
			}
			kept := make([][]mem.Word, len(held))
			for i, h := range held {
				kept[i] = slices.Clone(h)
			}
			if r := rng.Intn(10); r < 7 || len(mems) >= 8 {
				a, e := addrs[rng.Intn(len(addrs))], exprs[rng.Intn(len(exprs))]
				if old, ok := models[n][a]; ok && old.Label().IsSecret() != e.Label().IsSecret() {
					flips++
				}
				mems[n].Write(a, e)
				models[n][a] = e
			} else {
				mems = append(mems, mems[n].Clone())
				models = append(models, maps.Clone(models[n]))
			}
			for i, m := range mems {
				if got, want := m.SecretAddresses(), scan(models[i]); !slices.Equal(got, want) {
					t.Fatalf("run %d op %d memory %d: SecretAddresses = %v, scan %v", run, op, i, got, want)
				}
				if i < len(held) && !slices.Equal(held[i], kept[i]) {
					t.Fatalf("run %d op %d memory %d: a write to memory %d changed a set handed out before it", run, op, i, n)
				}
			}
		}
	}
	if flips == 0 {
		t.Fatal("no cell ever changed its secret-ness")
	}
	m := NewMemory()
	for i, a := range addrs {
		m.Write(a, exprs[i])
	}
	m = m.Clone()
	m.Write(addrs[0], k)
	if avg := testing.AllocsPerRun(100, func() {
		if len(m.SecretAddresses()) != 4 {
			t.Fatal("want 4 secret cells")
		}
	}); avg != 0 {
		t.Fatalf("SecretAddresses allocated %.1f objects per run, want 0", avg)
	}
}

// TestRegFileMatchesMapModel is the symbolic twin of mem's
// TestRegisterFileMatchesMapModel: random Write/Clone sequences over a
// family of register files, each beside a plain-map model, over low
// registers, registers above 255 and the conventional RMSK/RSP/RTMP.
// After every operation every file must agree with its own model on
// Read and Len (so each side of a clone stays isolated from the
// other's writes) and, once activated at a random point, on the
// incremental HashSum against a from-scratch sum.
func TestRegFileMatchesMapModel(t *testing.T) {
	regs := []isa.Reg{0, 1, 2, 7, 255, 256, 300, 0x8000, mem.RMSK, mem.RSP, mem.RTMP}
	x := NewVar("x", mem.Public)
	exprs := []Expr{CW(0), CW(1), C(mem.Sec(1)), x, Apply(isa.OpAdd, x, CW(1))}
	scratchSum := func(m map[isa.Reg]Expr) uint64 {
		var sum uint64
		for r, e := range m {
			sum += chainCellHash(uint64(r), e)
		}
		return sum
	}
	rng := rand.New(rand.NewSource(5))
	for run := 0; run < 100; run++ {
		files := []*RegFile{NewRegFile()}
		models := []map[isa.Reg]Expr{{}}
		for op := 0; op < 80; op++ {
			n := rng.Intn(len(files))
			switch r := rng.Intn(10); {
			case r < 6:
				reg, e := regs[rng.Intn(len(regs))], exprs[rng.Intn(len(exprs))]
				files[n].Write(reg, e)
				models[n][reg] = e
			case r < 8 && len(files) < 8:
				files = append(files, files[n].Clone())
				models = append(models, maps.Clone(models[n]))
			case r == 8:
				_ = files[n].HashSum()
			}
			for i, f := range files {
				m := models[i]
				for _, reg := range regs {
					got, ok := f.Read(reg)
					want, wok := m[reg]
					if ok != wok || ok && Fingerprint(got) != Fingerprint(want) {
						t.Fatalf("run %d op %d file %d: Read(%#x) = %v/%t, model %v/%t", run, op, i, reg, got, ok, want, wok)
					}
				}
				if f.Len() != len(m) {
					t.Fatalf("run %d op %d file %d: Len = %d, model %d", run, op, i, f.Len(), len(m))
				}
				if f.hashed && f.HashSum() != scratchSum(m) {
					t.Fatalf("run %d op %d file %d: incremental HashSum differs from a from-scratch sum", run, op, i)
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

// TestOpEvalAllocationFree pins the solver hot path: evaluating an
// expression tree under a model must not allocate (Op.Eval used to
// build a value slice per node per probe).
func TestOpEvalAllocationFree(t *testing.T) {
	x := NewVar("x", mem.Public)
	e := Apply(eqOp(), Apply(eqOp(), x, CW(4)), CW(0))
	env := Env{"x": 7}
	if avg := testing.AllocsPerRun(100, func() {
		_ = e.Eval(env)
	}); avg != 0 {
		t.Fatalf("Op.Eval allocated %.1f objects per run, want 0", avg)
	}
}
