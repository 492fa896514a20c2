package taint

import (
	"math/rand"
	"reflect"
	"testing"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

const (
	ra = isa.Reg(0)
	rb = isa.Reg(1)
	rc = isa.Reg(2)
)

func analyze(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// A load whose address is computed from secret data is the canonical
// suspicious point; a load of secret data through a public address is
// not — reading a secret is fine, exposing it through an address is the
// leak.
func TestVerdictSecretAddressVsSecretData(t *testing.T) {
	// 1: ra = load [100]     (secret cell: ra becomes secret)
	// 2: rb = load [200, ra] (secret-derived address: suspicious)
	b := isa.NewBuilder(1)
	b.Data(100, mem.Sec(7))
	b.Load(ra, isa.ImmW(100))
	b.Load(rb, isa.ImmW(200), isa.R(ra))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep := analyze(t, Config{Prog: p})
	if rep.Safe() {
		t.Fatal("secret-indexed load reported safe")
	}
	if !rep.SafePoint(1) {
		t.Errorf("point 1 (public-address load of secret data) should be safe")
	}
	if rep.SafePoint(2) {
		t.Errorf("point 2 (secret-derived address) should be suspicious")
	}
	if rep.ForkFree(1) {
		t.Errorf("point 1 forward-reaches the suspicious point 2")
	}
	if !rep.ForkFree(2+1) || rep.Points != 2 {
		// No instruction beyond 2; nothing suspicious is reachable from
		// a halt point.
		t.Errorf("halt point should be fork-free (points=%d)", rep.Points)
	}
}

// Wrong-path execution: taint must flow through the arm the
// architectural execution would never take.
func TestVerdictWrongPathFlow(t *testing.T) {
	// 1: br (ra < 2) → 2 (in-bounds) / 4 (skip)
	// 2: rb = load [100, ra]   (reads the secret cell when ra is out of bounds transiently)
	// 3: rc = load [200, rb]   (leaks rb through the address)
	// 4: halt
	b := isa.NewBuilder(1)
	b.Data(100, mem.Pub(1))
	b.Data(101, mem.Sec(9))
	b.Br(isa.OpLt, []isa.Operand{isa.R(ra), isa.ImmW(1)}, 2, 4)
	b.Load(rb, isa.ImmW(100), isa.R(ra))
	b.Load(rc, isa.ImmW(200), isa.R(rb))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep := analyze(t, Config{Prog: p})
	if rep.SafePoint(3) {
		t.Errorf("point 3 leaks the transiently loaded secret; must be suspicious")
	}
	if rep.Safe() {
		// consistency: Safe ⟺ no suspicious point
		t.Logf("suspicious: %v", rep.SuspiciousPoints())
	} else if len(rep.SuspiciousPoints()) == 0 {
		t.Errorf("not Safe but no suspicious points listed")
	}
}

// Store bypass: a secret stored AFTER (in program order) a load from
// the same cell must still taint the load — a speculative schedule can
// forward it or let the load read stale/planted data.
func TestVerdictStoreBypassOrderIndependence(t *testing.T) {
	// 1: rb = load [100]       (program-order-first load)
	// 2: rc = load [200, rb]   (address derived from the load)
	// 3: store ra → [100]      (ra secret, store after the loads)
	b := isa.NewBuilder(1)
	b.Load(rb, isa.ImmW(100))
	b.Load(rc, isa.ImmW(200), isa.R(rb))
	b.Store(isa.R(ra), isa.ImmW(100))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep := analyze(t, Config{Prog: p, Regs: map[isa.Reg]mem.Label{ra: mem.Secret}})
	if rep.SafePoint(2) {
		t.Errorf("point 2 must be suspicious: the forwarded/stale store value is secret")
	}
}

// A program with no secrets anywhere is certified safe, including its
// branches and stores.
func TestVerdictAllPublicIsSafe(t *testing.T) {
	b := isa.NewBuilder(1)
	b.Data(100, mem.Pub(3))
	b.Br(isa.OpLt, []isa.Operand{isa.R(ra), isa.ImmW(4)}, 2, 4)
	b.Load(rb, isa.ImmW(100), isa.R(ra))
	b.Store(isa.R(rb), isa.ImmW(100))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep := analyze(t, Config{Prog: p})
	if !rep.Safe() {
		t.Fatalf("all-public program flagged: suspicious %v", rep.SuspiciousPoints())
	}
	for _, pp := range []isa.Addr{1, 2, 3} {
		if !rep.ForkFree(pp) {
			t.Errorf("point %d not fork-free in a safe program", pp)
		}
	}
}

// A return makes the static successor set unknowable: the analysis
// must fall back to whole-program conservatism.
func TestComputedFlowConservatism(t *testing.T) {
	b := isa.NewBuilder(1)
	b.Op(ra, isa.OpMov, isa.ImmW(0))
	b.Ret()
	b.Load(rb, isa.ImmW(200), isa.R(rc)) // "unreachable" architecturally
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep := analyze(t, Config{Prog: p, Regs: map[isa.Reg]mem.Label{rc: mem.Secret}})
	if !rep.ComputedFlow {
		t.Fatal("ret should set ComputedFlow")
	}
	if rep.Reachable != rep.Points {
		t.Errorf("computed flow must make every point reachable: %d of %d", rep.Reachable, rep.Points)
	}
	if rep.SafePoint(3) {
		t.Errorf("secret-indexed load must stay suspicious under computed flow")
	}
	if rep.ForkFree(1) {
		t.Errorf("no point is fork-free while any point is suspicious under computed flow")
	}
}

// ---------------------------------------------------------------------
// Property tests.
// ---------------------------------------------------------------------

// randProgram builds a random but well-formed program of n sequential
// points over 3 registers, with occasional backward/forward branches.
// All control flow stays within [1, n+1] (n+1 is the halt point).
func randProgram(rng *rand.Rand, n int) *isa.Program {
	b := isa.NewBuilder(1)
	for a := isa.Addr(1); a <= isa.Addr(n); a++ {
		b.Data(50+a, mem.Pub(uint64(rng.Intn(8))))
	}
	operand := func() isa.Operand {
		if rng.Intn(2) == 0 {
			return isa.R(isa.Reg(rng.Intn(3)))
		}
		return isa.ImmW(uint64(50 + rng.Intn(n)))
	}
	for i := 0; i < n; i++ {
		dst := isa.Reg(rng.Intn(3))
		switch rng.Intn(5) {
		case 0:
			b.Op(dst, isa.OpAdd, operand(), operand())
		case 1:
			b.Load(dst, operand())
		case 2:
			b.Store(operand(), operand())
		case 3:
			t1 := isa.Addr(1 + rng.Intn(n+1))
			t2 := isa.Addr(1 + rng.Intn(n+1))
			b.Br(isa.OpLt, []isa.Operand{operand(), operand()}, t1, t2)
		case 4:
			b.Fence()
		}
	}
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// TestMonotonicity: joining MORE secrets into the seed labeling never
// yields a LESS secret result — the suspicious set only grows, and
// Safe can only flip towards false.
func TestMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(20200615))
	for trial := 0; trial < 200; trial++ {
		p := randProgram(rng, 3+rng.Intn(12))

		weak := Config{Prog: p, Regs: map[isa.Reg]mem.Label{}, Mem: map[isa.Addr]mem.Label{}}
		for r := 0; r < 3; r++ {
			if rng.Intn(3) == 0 {
				weak.Regs[isa.Reg(r)] = mem.Secret
			}
		}
		if rng.Intn(2) == 0 {
			weak.Mem[isa.Addr(50+rng.Intn(8))] = mem.Secret
		}

		// strong = weak ⊔ extra secrets (a strictly-higher or equal seed).
		strong := Config{Prog: p, Regs: map[isa.Reg]mem.Label{}, Mem: map[isa.Addr]mem.Label{}}
		for r, l := range weak.Regs {
			strong.Regs[r] = l
		}
		for a, l := range weak.Mem {
			strong.Mem[a] = l
		}
		strong.Regs[isa.Reg(rng.Intn(3))] = mem.Secret
		strong.Mem[isa.Addr(50+rng.Intn(8))] = mem.Secret

		wr := analyze(t, weak)
		sr := analyze(t, strong)

		for _, pp := range p.Points() {
			if !wr.SafePoint(pp) && sr.SafePoint(pp) {
				t.Fatalf("trial %d: point %d suspicious under weak seed but safe under strong\n%v", trial, pp, p.Instrs)
			}
			if !sr.ForkFree(pp) && wr.ForkFree(pp) {
				continue // fine: strong may lose fork-freedom
			}
			if sr.ForkFree(pp) && !wr.ForkFree(pp) {
				t.Fatalf("trial %d: point %d fork-free under strong seed but not weak\n%v", trial, pp, p.Instrs)
			}
		}
		if sr.Safe() && !wr.Safe() {
			t.Fatalf("trial %d: strong seed safe but weak flagged\n%v", trial, p.Instrs)
		}
	}
}

// TestDeterminism: analyzing the same configuration twice yields the
// identical report, map iteration order notwithstanding.
func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		p := randProgram(rng, 4+rng.Intn(10))
		cfg := Config{Prog: p, Regs: map[isa.Reg]mem.Label{ra: mem.Secret}}
		r1 := analyze(t, cfg)
		r2 := analyze(t, cfg)
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("trial %d: same configuration, different reports\n%v", trial, p.Instrs)
		}
	}
}

// TestReorderingIndependentBlocks: two data- and control-independent
// blocks analyzed in either program order yield the same verdicts point
// for point (through the block permutation).
func TestReorderingIndependentBlocks(t *testing.T) {
	// Block A (3 points): secret-indexed load chain over ra/rb, cells 100/101.
	// Block B (2 points): public store+load over rc, cell 300.
	blockA := func(b *isa.Builder) {
		b.Load(ra, isa.ImmW(100))            // secret cell
		b.Load(rb, isa.ImmW(200), isa.R(ra)) // suspicious
		b.Store(isa.R(rb), isa.ImmW(101))    // public address, secret-derived data
	}
	blockB := func(b *isa.Builder) {
		b.Store(isa.ImmW(5), isa.ImmW(300))
		b.Load(rc, isa.ImmW(300))
	}
	data := func(b *isa.Builder) {
		b.Data(100, mem.Sec(1))
		b.Data(300, mem.Pub(2))
	}

	ab := isa.NewBuilder(1)
	data(ab)
	blockA(ab)
	blockB(ab)
	pAB, err := ab.Build()
	if err != nil {
		t.Fatal(err)
	}
	ba := isa.NewBuilder(1)
	data(ba)
	blockB(ba)
	blockA(ba)
	pBA, err := ba.Build()
	if err != nil {
		t.Fatal(err)
	}

	rAB := analyze(t, Config{Prog: pAB})
	rBA := analyze(t, Config{Prog: pBA})

	// Permutation: A occupies 1-3 in AB and 3-5 in BA; B occupies 4-5
	// in AB and 1-2 in BA.
	perm := map[isa.Addr]isa.Addr{1: 3, 2: 4, 3: 5, 4: 1, 5: 2}
	for from, to := range perm {
		if rAB.SafePoint(from) != rBA.SafePoint(to) {
			t.Errorf("verdict differs across reordering: AB@%d safe=%v, BA@%d safe=%v",
				from, rAB.SafePoint(from), to, rBA.SafePoint(to))
		}
	}
	if rAB.Safe() != rBA.Safe() {
		t.Errorf("whole-program verdict differs across reordering")
	}
}
