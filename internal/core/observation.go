package core

import (
	"fmt"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

// OKind discriminates attacker observations. The semantics exposes
// memory effects and control flow directly; caches, port contention,
// and the like are functions of this trace, so they need no separate
// modeling (§3.1).
type OKind uint8

const (
	ORead     OKind = iota // read aℓa — load serviced from memory
	OFwd                   // fwd aℓa — store-to-load forward / store address resolution
	OWrite                 // write aℓa — store retired to memory
	OJump                  // jump nℓ — resolved control flow
	ORollback              // rollback — misspeculation or hazard detected
)

// Observation is a single externally visible event. Read/Fwd/Write
// carry the labeled data address; Jump carries the labeled target
// program point; Rollback carries nothing.
type Observation struct {
	Kind   OKind
	Addr   mem.Word  // ORead, OFwd, OWrite
	Target isa.Addr  // OJump
	Label  mem.Label // ℓa or ℓ; Public for ORollback
}

// ReadObs constructs read aℓa.
func ReadObs(a mem.Word, l mem.Label) Observation {
	return Observation{Kind: ORead, Addr: a, Label: l}
}

// FwdObs constructs fwd aℓa.
func FwdObs(a mem.Word, l mem.Label) Observation {
	return Observation{Kind: OFwd, Addr: a, Label: l}
}

// WriteObs constructs write aℓa.
func WriteObs(a mem.Word, l mem.Label) Observation {
	return Observation{Kind: OWrite, Addr: a, Label: l}
}

// JumpObs constructs jump nℓ.
func JumpObs(n isa.Addr, l mem.Label) Observation {
	return Observation{Kind: OJump, Target: n, Label: l}
}

// RollbackObs constructs rollback.
func RollbackObs() Observation { return Observation{Kind: ORollback} }

// Secret reports whether the observation's label is above Public —
// i.e. whether this event, if it occurs, leaks secret-influenced data
// to the attacker. Theorem B.9/B.10 phrase security in terms of
// traces free of such labels.
func (o Observation) Secret() bool { return o.Label.IsSecret() }

// String renders the observation in the paper's syntax.
func (o Observation) String() string {
	switch o.Kind {
	case ORead:
		return fmt.Sprintf("read %d%s", o.Addr, o.Label)
	case OFwd:
		return fmt.Sprintf("fwd %d%s", o.Addr, o.Label)
	case OWrite:
		return fmt.Sprintf("write %d%s", o.Addr, o.Label)
	case OJump:
		return fmt.Sprintf("jump %d%s", o.Target, o.Label)
	case ORollback:
		return "rollback"
	}
	return fmt.Sprintf("obs(%d)", uint8(o.Kind))
}

// Trace is an observation sequence O.
type Trace []Observation

// Equal reports O = O′, the trace equality of Def. 3.1.
func (t Trace) Equal(u Trace) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// HasSecret reports whether any observation carries a non-public
// label.
func (t Trace) HasSecret() bool {
	for _, o := range t {
		if o.Secret() {
			return true
		}
	}
	return false
}

// String renders the trace as "o1; o2; …".
func (t Trace) String() string {
	parts := make([]string, len(t))
	for i, o := range t {
		parts[i] = o.String()
	}
	return join(parts, "; ")
}
