package core

import "pitchfork/internal/mem"

// hasher absorbs a word sequence: h ← Mix64(h ⊕ w), seeded from
// mem.HashSeed. Order-sensitive; the fingerprint absorbs whole words
// rather than hashing byte-at-a-time, since exploration states are
// fingerprinted on the hot path and a machine holds hundreds of words.
type hasher struct{ h uint64 }

func newHasher() hasher { return hasher{h: mem.HashSeed} }

func (f *hasher) word(w uint64) { f.h = mem.Mix64(f.h ^ w) }

func (f *hasher) bool(b bool) {
	if b {
		f.word(1)
	} else {
		f.word(0)
	}
}

func (f *hasher) value(v mem.Value) { f.h = mixValue(f.h, v) }

// mixValue absorbs a labeled word into the running hash h: the
// concrete domain's value hash.
func mixValue(h uint64, v mem.Value) uint64 {
	return mem.Mix64(mem.Mix64(h^v.W) ^ uint64(v.L))
}

// Fingerprint hashes the machine's dynamic configuration — PC, retired
// count, register file, data memory, reorder-buffer contents, and the
// RSB journal — to 64 bits. Machines with equal configurations produce
// equal fingerprints, so the schedule explorer can use the fingerprint
// to prune re-converged exploration states (distinct configurations may
// collide with probability ~2^-64; callers trading exactness for speed
// accept that). The static program and the machine parameters are not
// hashed: they are constant across one exploration.
func (m *Machine) Fingerprint() uint64 {
	f := hasher{h: m.HashState(mixValue)}
	m.RSB.hashInto(&f)
	return f.h
}

// HashState hashes the configuration but σ — PC, retired count,
// register file, data memory, MIN(buf) and every buffered transient —
// for a domain's Fingerprint; mix absorbs one value of the domain. The
// register file and memory keep incremental order-independent hash
// sums (updated on every Write), so their share is O(1): the dedup
// table fingerprints every explored state. σ is left to the caller
// because the two domains fold it in differently, and changing either
// would move states between dedup shards.
func (s *State[V, R, M]) HashState(mix func(h uint64, v V) uint64) uint64 {
	f := newHasher()
	f.word(uint64(s.PC))
	f.word(uint64(s.Retired))
	f.word(s.Regs.HashSum())
	f.word(s.Mem.HashSum())
	f.word(uint64(s.Buf.Min()))
	for _, t := range s.Buf.All() {
		t.hashInto(&f, mix)
	}
	return f.h
}

// hashInto feeds every semantically meaningful transient field to the
// hasher. Fields that are inert for the current Kind still hash (they
// are zero-valued there), which keeps the function branch-free and
// future-proof against new resolution flags. mix absorbs a value of
// the domain; every other field is domain-independent.
func (t *TransientOf[V]) hashInto(f *hasher, mix func(h uint64, v V) uint64) {
	f.word(uint64(t.Kind))
	f.word(uint64(t.Dst))
	f.word(uint64(t.Op))
	f.word(uint64(len(t.Args)))
	for _, a := range t.Args {
		f.bool(a.IsReg)
		f.word(uint64(a.Reg))
		f.value(a.Imm)
	}
	f.h = mix(f.h, t.Val)
	f.bool(t.FromLoad)
	f.word(uint64(t.Dep))
	f.word(t.DataAddr)
	f.word(uint64(t.PP))
	f.word(uint64(t.Guess))
	f.word(uint64(t.True))
	f.word(uint64(t.False))
	f.word(uint64(t.Target))
	f.bool(t.Src.IsReg)
	f.word(uint64(t.Src.Reg))
	f.value(t.Src.Imm)
	f.bool(t.ValKnown)
	f.h = mix(f.h, t.SVal)
	f.bool(t.AddrKnown)
	f.value(t.SAddr)
	f.bool(t.PredFwd)
	f.h = mix(f.h, t.PredVal)
	f.word(uint64(t.PredFrom))
}

// Hash folds the RSB journal (policy included) to 64 bits — exported
// so non-core domains of the exploration engine can fingerprint the
// RSB they embed.
func (s *RSB) Hash() uint64 {
	f := newHasher()
	s.hashInto(&f)
	return f.h
}

func (s *RSB) hashInto(f *hasher) {
	f.word(uint64(s.policy))
	for _, e := range s.entries {
		f.word(uint64(e.idx))
		f.bool(e.isPush)
		f.word(uint64(e.target))
	}
}
