package symx

import "pitchfork/internal/mem"

// The symbolic containers reuse internal/mem's generic copy-on-write
// representations with expression values, so each has exactly one
// implementation: Memory runs on the overlay chain (mem.CowMap) —
// lookup precedence, fork freezing, depth-bounded flattening — and
// RegFile on the flat cell file (mem.CellFile) the concrete register
// file uses.

// chainCellHash is the shared per-cell hash of the incremental,
// order-independent container sums: Mix64(Mix64(seed ^ key) ^
// Fingerprint(expr)) — kept bit-identical to the full-walk formula the
// symbolic configuration fingerprint used before the containers went
// copy-on-write.
func chainCellHash(key uint64, e Expr) uint64 {
	return mem.Mix64(mem.Mix64(mem.HashSeed^key) ^ Fingerprint(e))
}
