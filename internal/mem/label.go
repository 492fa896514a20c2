// Package mem provides the value-level substrate of the speculative
// machine: security labels drawn from a two-point label lattice,
// labeled machine words, register files, and labeled sparse memories.
//
// The paper (§3, "Values and labels") annotates every value with a label
// from a lattice of security labels with join ⊔ and defines the
// low-equivalence ≃pub over configurations as agreement on public
// values. Its checker, and every checker here, uses the two-point
// lattice {pub ⊑ sec}, which is what this package implements.
package mem

// Label is an element of the two-point security lattice {pub ⊑ sec}.
// Public is 0 and Secret is 1, so join is bitwise or; the encoding is
// part of every cell hash and fingerprint, so it must not change.
type Label uint64

// Public is the bottom element of the lattice: data the attacker is
// allowed to observe.
const Public Label = 0

// Secret is the top element (written "sec" in the figures).
const Secret Label = 1

// Join returns the least upper bound ℓ ⊔ m.
func (l Label) Join(m Label) Label { return l | m }

// IsPublic reports whether the label is the bottom element.
func (l Label) IsPublic() bool { return l == Public }

// IsSecret reports whether the label is above bottom.
func (l Label) IsSecret() bool { return l != Public }

// String renders Public as "pub" and Secret as "sec".
func (l Label) String() string {
	if l == Public {
		return "pub"
	}
	return "sec"
}
