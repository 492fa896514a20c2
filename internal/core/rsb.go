package core

import (
	"fmt"
	"strings"

	"pitchfork/internal/isa"
)

// RSBPolicy selects what top(σ) yields when the return stack buffer is
// empty. Appendix A documents three behaviours seen in real processors
// plus the default presentation where the attacker supplies the guess.
type RSBPolicy uint8

const (
	// RSBAttackerChoice is the paper's default: when top(σ) = ⊥ the
	// schedule must supply the speculative return target via fetch: n′.
	RSBAttackerChoice RSBPolicy = iota
	// RSBRefuse models AMD processors, which refuse to speculate on an
	// empty RSB: fetching a ret then stalls (the directive is invalid).
	RSBRefuse
	// RSBCircular models "most Intel processors", which treat the RSB
	// as a circular buffer: top(σ) always produces a value (the stale
	// slot contents), never ⊥.
	RSBCircular
)

// String names the policy.
func (p RSBPolicy) String() string {
	switch p {
	case RSBAttackerChoice:
		return "attacker-choice"
	case RSBRefuse:
		return "refuse"
	case RSBCircular:
		return "circular"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// rsbCircularSize is the ring capacity under RSBCircular; 16 entries is
// the size of the RSB on most of the Intel parts the ret2spec paper
// measured.
const rsbCircularSize = 16

type rsbEntry struct {
	idx    int // reorder-buffer index the entry was journaled at
	isPush bool
	target isa.Addr // push payload
}

// RSB is the return stack buffer σ: a journal of push/pop commands
// keyed by reorder-buffer indices. Keeping the journal (rather than a
// materialized stack) makes rollback exact: misspeculation at buffer
// index i simply discards entries journaled at indices ≥ i, which is
// how the paper says σ is "rolled back on misspeculation or memory
// hazards".
//
// The journal is copy-on-write: Clone is O(1) and shares the entry
// slice; appends re-own it lazily, and rollback is a pure reslice
// (safe on a shared array), so forks pay only for entries journaled
// after the fork.
type RSB struct {
	policy  RSBPolicy
	entries []rsbEntry
	// shared marks the backing array as possibly aliased by a clone;
	// the next append copies it first.
	shared bool
}

// NewRSB returns an empty RSB with the given policy.
func NewRSB(policy RSBPolicy) *RSB { return &RSB{policy: policy} }

// Policy returns the empty-RSB behaviour.
func (s *RSB) Policy() RSBPolicy { return s.policy }

// own re-owns the backing array before an append when it may be
// shared with a clone.
func (s *RSB) own() {
	if !s.shared {
		return
	}
	entries := make([]rsbEntry, len(s.entries), len(s.entries)+4)
	copy(entries, s.entries)
	s.entries = entries
	s.shared = false
}

// Push journals σ[i ↦ push n].
func (s *RSB) Push(idx int, target isa.Addr) {
	s.own()
	s.entries = append(s.entries, rsbEntry{idx: idx, isPush: true, target: target})
}

// Pop journals σ[i ↦ pop].
func (s *RSB) Pop(idx int) {
	s.own()
	s.entries = append(s.entries, rsbEntry{idx: idx})
}

// Rollback discards entries journaled at buffer indices ≥ i. Entries
// are journaled in fetch order and every rollback discards a suffix
// before indices are reused, so the journal is always sorted by idx
// and the discard is a reslice of the tail — O(discarded) and safe on
// a shared backing array.
func (s *RSB) Rollback(i int) {
	n := len(s.entries)
	for n > 0 && s.entries[n-1].idx >= i {
		n--
	}
	s.entries = s.entries[:n]
}

// Top evaluates top(σ) = st(MAX(st)) where st = JσK: the journal is
// replayed in index order, pushes appending and pops removing the top.
// Under RSBCircular the replay runs over a ring, so ok is always true;
// otherwise ok reports whether the resulting stack is non-empty (⊥).
func (s *RSB) Top() (isa.Addr, bool) {
	if s.policy == RSBCircular {
		var ring [rsbCircularSize]isa.Addr
		sp := 0
		for _, e := range s.entries {
			if e.isPush {
				sp++
				ring[((sp%rsbCircularSize)+rsbCircularSize)%rsbCircularSize] = e.target
			} else {
				sp--
			}
		}
		return ring[((sp%rsbCircularSize)+rsbCircularSize)%rsbCircularSize], true
	}
	// Backward scan, allocation-free: the replayed top is the youngest
	// push not cancelled by a later pop. Pops that underflow an empty
	// stack in the forward replay have no matching earlier push, so
	// they cannot cancel one here either — the two replays agree.
	depth := 0
	for k := len(s.entries) - 1; k >= 0; k-- {
		e := s.entries[k]
		if !e.isPush {
			depth++
			continue
		}
		if depth == 0 {
			return e.target, true
		}
		depth--
	}
	return 0, false
}

// Clone returns an independent copy in O(1): the journal's backing
// array is shared and marked copy-on-write on both sides, so the next
// append on either side re-owns it first.
func (s *RSB) Clone() *RSB {
	s.shared = true
	return &RSB{policy: s.policy, entries: s.entries, shared: true}
}

// String renders the journal, e.g. "[1↦push 4][8↦pop]".
func (s *RSB) String() string {
	if len(s.entries) == 0 {
		return "∅"
	}
	var b strings.Builder
	for _, e := range s.entries {
		if e.isPush {
			fmt.Fprintf(&b, "[%d↦push %d]", e.idx, e.target)
		} else {
			fmt.Fprintf(&b, "[%d↦pop]", e.idx)
		}
	}
	return b.String()
}
