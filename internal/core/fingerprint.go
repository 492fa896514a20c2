package core

import "pitchfork/internal/mem"

// hasher absorbs a word sequence: h ← Mix64(h ⊕ w), seeded from
// mem.HashSeed. Order-sensitive; the fingerprint absorbs whole words
// rather than hashing byte-at-a-time, since exploration states are
// fingerprinted on the hot path and a machine holds hundreds of words.
type hasher struct{ h uint64 }

func newHasher() hasher { return hasher{h: mem.HashSeed} }

func (f *hasher) word(w uint64) { f.h = mem.Mix64(f.h ^ w) }

func (f *hasher) value(v mem.Value) { f.h = mixValue(f.h, v) }

// bit is b as a word: 1 or 0.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// mixValue absorbs a labeled word into the running hash h: the
// concrete domain's value hash.
func mixValue(h uint64, v mem.Value) uint64 {
	return mem.Mix64(mem.Mix64(h^v.W) ^ uint64(v.L))
}

// Fingerprint hashes the machine's dynamic configuration to 64 bits
// (see HashState). Machines with equal configurations produce equal
// fingerprints, so the schedule explorer can use the fingerprint to
// prune re-converged exploration states (distinct configurations may
// collide with probability ~2^-64; callers trading exactness for speed
// accept that). The static program and the machine parameters are not
// hashed: they are constant across one exploration.
func (m *Machine) Fingerprint() uint64 { return m.HashState(mixValue) }

// HashState hashes the configuration — PC, retired count, register
// file, data memory, MIN(buf), every buffered transient, and the RSB
// journal σ — for a domain's Fingerprint; mix absorbs one value of the
// domain. The register file, memory, reorder buffer and RSB journal
// keep incremental order-independent hash sums (updated on every
// write), so the whole fingerprint is O(1): the dedup table
// fingerprints every explored state. The first call switches each to
// keeping its sum, and clones inherit that.
func (s *State[V, R, M]) HashState(mix func(h uint64, v V) uint64) uint64 {
	if !s.Buf.Hashing() {
		s.Buf.StartHashing(entryHash(mix))
	}
	f := newHasher()
	f.word(uint64(s.PC))
	f.word(uint64(s.Retired))
	f.word(s.Regs.HashSum())
	f.word(s.Mem.HashSum())
	f.word(uint64(s.Buf.Min()))
	f.word(s.Buf.HashSum())
	f.word(uint64(s.RSB.Policy()))
	f.word(s.RSB.HashSum())
	return f.h
}

// entryHash is the reorder buffer's per-entry hash in the domain whose
// value hash is mix: the entry's index, then its fields.
func entryHash[V any](mix func(h uint64, v V) uint64) func(int, *TransientOf[V]) uint64 {
	return func(i int, t *TransientOf[V]) uint64 {
		f := newHasher()
		f.word(uint64(i))
		t.hashInto(&f, mix)
		return f.h
	}
}

// hashInto feeds every semantically meaningful transient field to the
// hasher. Fields that are inert for the current Kind still hash (they
// are zero-valued there), which keeps the function branch-free and
// future-proof against new resolution flags. The narrow fields share
// one word — Kind and Op take 8 bits each, the two registers 16 each,
// the five flags one bit each — so an entry costs fewer mixing rounds.
// mix absorbs a value of the domain; every other field is
// domain-independent.
func (t *TransientOf[V]) hashInto(f *hasher, mix func(h uint64, v V) uint64) {
	f.word(uint64(t.Kind) | uint64(t.Op)<<8 | uint64(t.Dst)<<16 | uint64(t.Src.Reg)<<32 |
		bit(t.FromLoad)<<48 | bit(t.Src.IsReg)<<49 | bit(t.ValKnown)<<50 | bit(t.AddrKnown)<<51 | bit(t.PredFwd)<<52)
	f.word(uint64(len(t.Args)))
	for _, a := range t.Args {
		f.word(bit(a.IsReg) | uint64(a.Reg)<<1)
		f.value(a.Imm)
	}
	f.h = mix(f.h, t.Val)
	f.word(uint64(t.Dep))
	f.word(t.DataAddr)
	f.word(uint64(t.PP))
	f.word(uint64(t.Guess))
	f.word(uint64(t.True))
	f.word(uint64(t.False))
	f.word(uint64(t.Target))
	f.value(t.Src.Imm)
	f.h = mix(f.h, t.SVal)
	f.value(t.SAddr)
	f.h = mix(f.h, t.PredVal)
	f.word(uint64(t.PredFrom))
}
