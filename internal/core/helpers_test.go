package core

import (
	"math/rand"
	"testing"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

// Register names used by the figures.
const (
	ra = isa.Reg(0)
	rb = isa.Reg(1)
	rc = isa.Reg(2)
	rd = isa.Reg(3)
	rg = isa.Reg(6)
	rh = isa.Reg(7)
	rx = isa.Reg(23)
)

// Retires counts retire directives: N = #{d ∈ D | d = retire}.
func (s Schedule) Retires() int {
	n := 0
	for _, d := range s {
		if d.Kind == DRetire {
			n++
		}
	}
	return n
}

// Depth returns the replayed stack depth, a pop of an empty stack
// leaving it at zero like the replay.
func (s *RSB) Depth() int {
	d := 0
	for _, e := range s.entries {
		if e.isPush {
			d++
		} else if d > 0 {
			d--
		}
	}
	return d
}

func mustStep(t *testing.T, m *Machine, d Directive) []Observation {
	t.Helper()
	obs, err := m.Step(d)
	if err != nil {
		t.Fatalf("step %q: %v", d, err)
	}
	return obs
}

func mustRun(t *testing.T, m *Machine, ds ...Directive) Trace {
	t.Helper()
	tr, err := m.Run(ds)
	if err != nil {
		t.Fatalf("run: %v (trace so far: %s)", err, tr)
	}
	return tr
}

func wantTrace(t *testing.T, got Trace, want ...Observation) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("trace mismatch:\n got: %s\nwant: %s", got, Trace(want))
	}
}

func wantBufEntry(t *testing.T, m *Machine, i int, want string) {
	t.Helper()
	tr, ok := m.Buf.Get(i)
	if !ok {
		t.Fatalf("buffer index %d missing (domain [%d,%d])", i, m.Buf.Min(), m.Buf.Max())
	}
	if tr.String() != want {
		t.Fatalf("buf(%d) = %s, want %s", i, tr, want)
	}
}

func wantNoBufEntry(t *testing.T, m *Machine, i int) {
	t.Helper()
	if _, ok := m.Buf.Get(i); ok {
		t.Fatalf("buffer index %d should have been rolled back", i)
	}
}

// drain consumes buffer indices by executing and retiring simple ops;
// used to line test buffers up with the figures' index numbering.
func drain(t *testing.T, m *Machine, count int) {
	t.Helper()
	for k := 0; k < count; k++ {
		i := m.Buf.Max() + 1
		mustStep(t, m, Fetch())
		mustStep(t, m, Execute(i))
		mustStep(t, m, Retire())
	}
}

// nops prefixes a builder with count trivial register moves, so the
// interesting instructions land on the same buffer indices the figures
// use after the prefix is drained.
func nops(b *isa.Builder, count int) *isa.Builder {
	for k := 0; k < count; k++ {
		b.Op(rx, isa.OpMov, isa.ImmW(0))
	}
	return b
}

// fig1Program is the running example of §2 Figure 1: a bounds check
// protecting array A, with the secret Key adjacent in memory.
//
//	Memory: 0x40..0x43 array A (pub), 0x44..0x47 array B (pub),
//	        0x48..0x4B Key (sec)
//	1: br(>, (4, ra), 2, 4)
//	2: (rb = load([0x40, ra], 3))
//	3: (rc = load([0x44, rb], 4))
//	4: halt
func fig1Program() *isa.Program {
	b := isa.NewBuilder(1)
	b.Br(isa.OpGt, []isa.Operand{isa.ImmW(4), isa.R(ra)}, 2, 4)
	b.Load(rb, isa.ImmW(0x40), isa.R(ra))
	b.Load(rc, isa.ImmW(0x44), isa.R(rb))
	b.Region(0x40, mem.Pub(10), mem.Pub(11), mem.Pub(12), mem.Pub(13)) // array A
	b.Region(0x44, mem.Pub(20), mem.Pub(21), mem.Pub(22), mem.Pub(23)) // array B
	b.Region(0x48, mem.Sec(0xA0), mem.Sec(0xA1), mem.Sec(0xA2), mem.Sec(0xA3))
	return b.MustBuild()
}

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
