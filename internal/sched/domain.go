// The domain interface of the speculation engine. The §4.1 worst-case
// schedule strategy is one algorithm instantiated over two value
// domains: the concrete reference machine of internal/core, and the
// symbolic machine of internal/pitchfork. Everything the strategy
// needs — fetchability, reorder-buffer shape, speculation-source and
// resolution flags, directive application — is expressed through the
// Machine interface below, so the depth-first driver, the fingerprint
// dedup table and the exploration budgets apply to every domain
// uniformly.
//
// Both domains embed internal/core's State, which holds the semantics
// once: fetch, execute and retire are written over a small core.Domain
// of value operations, and so is the shape the engine reads. A domain
// only adds how to copy, hash and solve its configuration, and the
// symbolic one how to split a machine at a branch whose condition is
// not one concrete world. The interface and its types live in
// internal/core, next to the rules: *core.Machine implements the
// interface itself, and its Fork and Successors must name it, which
// they could not do here (this package imports core). These are their
// engine names.
package sched

import "pitchfork/internal/core"

// The engine's names for the domain contract of internal/core: the
// machine it drives (a *core.Machine in the concrete domain), one
// outcome of a step, and the projection of a buffer entry.
type (
	Machine       = core.Explorable
	Successor     = core.Successor
	TransientView = core.TransientView
)
