// Immutable parent-pointer chains for per-path bookkeeping, and the
// exploration-node pool. A fork used to copy the accumulated schedule
// and observation trace into every child, making fork cost grow with
// path depth; the chains below share the common prefix structurally,
// so extending a path is one node allocation and forking is free. The
// slices the rest of the system consumes (Violation.Schedule,
// Violation.Trace, the parallel merge keys) are materialized only when
// a violation is recorded.
package sched

import (
	"sync"

	"pitchfork/internal/core"
	"pitchfork/internal/isa"
)

// schedNode is one directive of a path's schedule; parent points at
// the preceding prefix, shared with every sibling fork.
type schedNode struct {
	parent *schedNode
	d      core.Directive
	depth  int // length of the prefix ending here
}

// push extends the schedule by one directive. A nil receiver is the
// empty schedule.
func (n *schedNode) push(d core.Directive) *schedNode {
	depth := 1
	if n != nil {
		depth = n.depth + 1
	}
	return &schedNode{parent: n, d: d, depth: depth}
}

// materialize renders the chain as a flat schedule, oldest first.
func (n *schedNode) materialize() core.Schedule {
	if n == nil {
		return nil
	}
	out := make(core.Schedule, n.depth)
	for m := n; m != nil; m = m.parent {
		out[m.depth-1] = m.d
	}
	return out
}

// traceNode is one observation of a path's trace, annotated with the
// program point of the instruction that produced it.
type traceNode struct {
	parent *traceNode
	o      core.Observation
	pp     isa.Addr
	depth  int
}

// push extends the trace by one observation. A nil receiver is the
// empty trace.
func (n *traceNode) push(o core.Observation, pp isa.Addr) *traceNode {
	depth := 1
	if n != nil {
		depth = n.depth + 1
	}
	return &traceNode{parent: n, o: o, pp: pp, depth: depth}
}

// materialize renders the trace prefix ending at n, oldest first.
func (n *traceNode) materialize() core.Trace {
	if n == nil {
		return nil
	}
	out := make(core.Trace, n.depth)
	for m := n; m != nil; m = m.parent {
		out[m.depth-1] = m.o
	}
	return out
}

// statePool recycles exploration nodes: a finished path's state is
// returned here and its struct (plus its pendingFwd map, cleared) is
// reused for the next fork, in both the serial and the work-stealing
// drivers. The chains and machines a state pointed at are shared and
// never pooled.
var statePool = sync.Pool{New: func() any { return new(state) }}

// newState returns a blank exploration node from the pool.
func newState() *state {
	return statePool.Get().(*state)
}

// releaseState returns a finished node to the pool. The pendingFwd
// map is kept (cleared) for reuse; every reference the node held is
// dropped so pooling never extends an object's lifetime.
func releaseState(s *state) {
	s.m = nil
	s.sched = nil
	s.trace = nil
	s.secret = nil
	s.settled, s.branch = 0, 0
	clear(s.pendingFwd)
	statePool.Put(s)
}
