package mem

import (
	"testing"
	"testing/quick"
)

// TestLabelLatticeBasics checks the two-point lattice {pub ⊑ sec}
// exhaustively: join, the bottom/top predicates and the rendering.
func TestLabelLatticeBasics(t *testing.T) {
	cases := []struct {
		a, b, join Label
	}{
		{Public, Public, Public},
		{Public, Secret, Secret},
		{Secret, Public, Secret},
		{Secret, Secret, Secret},
	}
	for _, c := range cases {
		if got := c.a.Join(c.b); got != c.join {
			t.Errorf("%v ⊔ %v = %v, want %v", c.a, c.b, got, c.join)
		}
	}
	if !Public.IsPublic() || Public.IsSecret() {
		t.Fatal("Public must be bottom")
	}
	if Secret.IsPublic() || !Secret.IsSecret() {
		t.Fatal("Secret must be above bottom")
	}
}

func TestLabelString(t *testing.T) {
	cases := map[Label]string{Public: "pub", Secret: "sec"}
	for l, want := range cases {
		if got := l.String(); got != want {
			t.Errorf("%#x.String() = %q, want %q", uint64(l), got, want)
		}
	}
}

// Join is a commutative, associative, idempotent upper bound on both
// points: Label really is a join semilattice.
func TestLabelSemilatticeProperties(t *testing.T) {
	points := []Label{Public, Secret}
	for _, x := range points {
		if x.Join(x) != x {
			t.Errorf("%v ⊔ %v != %v", x, x, x)
		}
		for _, y := range points {
			j := x.Join(y)
			if j != y.Join(x) {
				t.Errorf("%v ⊔ %v is not commutative", x, y)
			}
			if x.Join(j) != j || y.Join(j) != j {
				t.Errorf("%v ⊔ %v = %v is not an upper bound", x, y, j)
			}
			for _, z := range points {
				if x.Join(y).Join(z) != x.Join(y.Join(z)) {
					t.Errorf("(%v ⊔ %v) ⊔ %v is not associative", x, y, z)
				}
			}
		}
	}
}

func TestValueBasics(t *testing.T) {
	v := Sec(42)
	if !v.IsSecret() || v.W != 42 {
		t.Fatalf("Sec(42) = %v", v)
	}
	if got := Pub(9).String(); got != "9pub" {
		t.Fatalf("String = %q, want 9pub", got)
	}
}

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	if v := m.Read(0x40); v != Pub(0) {
		t.Fatalf("unmapped read = %v; want 0pub", v)
	}
	m.Write(0x40, Sec(7))
	if v := m.Read(0x40); v != Sec(7) {
		t.Fatalf("read-after-write = %v", v)
	}
	if !m.Contains(0x40) || m.Contains(0x41) {
		t.Fatal("Contains wrong")
	}
}

func TestMemoryCloneIsDeep(t *testing.T) {
	m := NewMemory()
	m.Write(1, Pub(10))
	c := m.Clone()
	c.Write(1, Pub(20))
	if v := m.Read(1); v != Pub(10) {
		t.Fatal("clone must not alias the original")
	}
	if v := c.Read(1); v != Pub(20) {
		t.Fatal("clone write lost")
	}
}

func TestMemoryRegionAndAddresses(t *testing.T) {
	m := NewMemory()
	for a := Word(0x46); a >= 0x44; a-- {
		m.Write(a, Pub(a))
	}
	want := []Word{0x44, 0x45, 0x46}
	got := m.Addresses()
	if len(got) != len(want) {
		t.Fatalf("addresses = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("addresses = %v, want %v", got, want)
		}
	}
}

func TestMemoryLowEquiv(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	a.Write(1, Pub(5))
	a.Write(2, Sec(10))
	b.Write(1, Pub(5))
	b.Write(2, Sec(99)) // secrets may differ
	if !a.LowEquiv(b) {
		t.Fatal("memories differing only in secrets must be low-equivalent")
	}
	b.Write(1, Pub(6))
	if a.LowEquiv(b) {
		t.Fatal("public disagreement must break low-equivalence")
	}
	b.Write(1, Pub(5))
	b.Write(3, Pub(0))
	if a.LowEquiv(b) {
		t.Fatal("domain mismatch must break low-equivalence")
	}
	// Label mismatch at same word also breaks it.
	c := NewMemory()
	c.Write(1, Pub(5))
	c.Write(2, Pub(10))
	if a.LowEquiv(c) {
		t.Fatal("label mismatch must break low-equivalence")
	}
}

func TestMemoryEqual(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	a.Write(1, Sec(5))
	b.Write(1, Sec(5))
	if !a.Equal(b) {
		t.Fatal("equal memories")
	}
	b.Write(1, Sec(6))
	if a.Equal(b) {
		t.Fatal("differing secrets are not Equal (≈ is exact)")
	}
}

func TestRegisterFile(t *testing.T) {
	f := NewRegisterFile()
	if f.Read(3) != Pub(0) {
		t.Fatal("unmapped register must read as 0pub")
	}
	f.Write(3, Sec(8))
	if f.Read(3) != Sec(8) {
		t.Fatal("read-after-write")
	}
	c := f.Clone()
	c.Write(3, Pub(1))
	if f.Read(3) != Sec(8) {
		t.Fatal("clone aliases")
	}
	regs := f.Registers()
	if len(regs) != 1 || regs[0] != 3 {
		t.Fatalf("Registers = %v", regs)
	}
}

func TestRegisterFileLowEquiv(t *testing.T) {
	a, b := NewRegisterFile(), NewRegisterFile()
	a.Write(1, Sec(1))
	b.Write(1, Sec(2))
	if !a.LowEquiv(b) {
		t.Fatal("secret registers may differ under ≃pub")
	}
	b.Write(2, Pub(1))
	if a.LowEquiv(b) {
		t.Fatal("a public nonzero vs implicit zero must break ≃pub")
	}
	a.Write(2, Pub(1))
	if !a.LowEquiv(b) || !a.Equal(b) == a.LowEquiv(b) && false {
		t.Fatal("restored equivalence")
	}
	if a.Equal(b) {
		t.Fatal("secret words differ, Equal must be false")
	}
	b.Write(1, Sec(1))
	if !a.Equal(b) {
		t.Fatal("Equal after matching secrets")
	}
}

// Property: LowEquiv is reflexive and symmetric on randomly generated
// memories.
func TestLowEquivReflexiveSymmetric(t *testing.T) {
	gen := func(seed uint64) *Memory {
		m := NewMemory()
		x := seed
		for i := 0; i < 16; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			l := Public
			if x&1 == 1 {
				l = Secret
			}
			m.Write(Word(i), V(x>>8, l))
		}
		return m
	}
	f := func(seed uint64) bool {
		m := gen(seed)
		n := gen(seed ^ 0xdeadbeef)
		if !m.LowEquiv(m) {
			return false
		}
		return m.LowEquiv(n) == n.LowEquiv(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
