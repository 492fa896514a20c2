// Parent-pointer chains for per-path bookkeeping, and the
// exploration-node pool. A fork used to copy the accumulated schedule
// and observation trace into every child, making fork cost grow with
// path depth; the chains below share the common prefix structurally,
// so forking is free. Extending a trace is one node allocation;
// extending a schedule writes one cell of a shared run and allocates
// only when the run fills or a fork arm starts its own. The slices the
// rest of the system consumes (Violation.Schedule, Violation.Trace)
// are materialized only when a violation is recorded.
package sched

import (
	"sync"

	"pitchfork/internal/core"
	"pitchfork/internal/isa"
)

// schedNode is a run of consecutive schedule directives. A path's
// schedule is a schedRef: the first n cells of a node, preceded by the
// prefix the node continues (its parent's first plen cells, and so
// on). Several paths may share a node: a path extends the node in
// place only while it ends at the node's last claimed cell, claiming
// the next one by bumping used, so of the paths forked from a common
// prefix exactly one keeps extending it and the others start their own
// nodes. Claimed cells are written once, before any
// path that reads them exists, and never again.
type schedNode struct {
	parent *schedNode
	plen   int // how many of parent's cells this run continues
	base   int // schedule length before the run's first cell
	used   int
	ds     []core.Directive // fixed length: the run's capacity
}

// Run capacities start small, since a fork arm's own run may be short,
// and double when a path fills its node, up to the cap.
const (
	schedRunMin = 2
	schedRunMax = 64
)

// schedRef is one path's schedule. The zero value is the empty
// schedule.
type schedRef struct {
	node *schedNode
	n    int
}

// push extends the schedule by one directive.
func (r schedRef) push(d core.Directive) schedRef {
	if nd := r.node; nd != nil && r.n < len(nd.ds) && nd.used == r.n {
		nd.used++
		nd.ds[r.n] = d
		return schedRef{nd, r.n + 1}
	}
	size, base := schedRunMin, 0
	if nd := r.node; nd != nil {
		base = nd.base + r.n
		if r.n == len(nd.ds) {
			size = min(2*len(nd.ds), schedRunMax)
		}
	}
	nd := &schedNode{parent: r.node, plen: r.n, base: base, used: 1, ds: make([]core.Directive, size)}
	nd.ds[0] = d
	return schedRef{nd, 1}
}

// materialize renders the schedule as a flat slice, oldest first; nil
// for the empty schedule.
func (r schedRef) materialize() core.Schedule {
	if r.node == nil {
		return nil
	}
	out := make(core.Schedule, r.node.base+r.n)
	for nd, n := r.node, r.n; nd != nil; nd, n = nd.parent, nd.plen {
		copy(out[nd.base:], nd.ds[:n])
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
// returned here and its struct is reused for the next fork, by every
// exploration running in the process. The chains and machines a
// state pointed at are shared and never pooled.
var statePool = sync.Pool{New: func() any { return new(state) }}

// newState returns a blank exploration node from the pool.
func newState() *state {
	return statePool.Get().(*state)
}

// releaseState returns a finished node to the pool. Every reference the
// node held is dropped so pooling never extends an object's lifetime.
func releaseState(s *state) {
	s.m = nil
	s.sched = schedRef{}
	s.trace = nil
	s.secret = nil
	s.settled = 0
	statePool.Put(s)
}
