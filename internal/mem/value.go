package mem

import "fmt"

// Word is the machine word of the abstract machine. The paper leaves
// the value domain abstract; we fix 64-bit two's-complement words, which
// is wide enough to express the figures' byte-addressed examples and the
// crypto case studies.
type Word = uint64

// Value is a labeled machine word vℓ.
type Value struct {
	W Word
	L Label
}

// V constructs a labeled value.
func V(w Word, l Label) Value { return Value{W: w, L: l} }

// Pub constructs a public value, the common case in the figures where
// the label annotation is omitted.
func Pub(w Word) Value { return Value{W: w, L: Public} }

// Sec constructs a secret value.
func Sec(w Word) Value { return Value{W: w, L: Secret} }

// IsSecret reports whether the value's label is above Public.
func (v Value) IsSecret() bool { return v.L.IsSecret() }

// Equal reports label-and-word equality. The memory-hazard rules of
// §3.5 compare forwarded data against memory with exactly this
// equality (v′ℓ′ ≠ vℓ triggers load-execute-addr-mem-hazard).
func (v Value) Equal(u Value) bool { return v == u }

// String renders the value in the paper's style, e.g. "9pub" or "x sec".
func (v Value) String() string {
	return fmt.Sprintf("%d%s", int64(v.W), v.L)
}
