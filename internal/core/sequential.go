package core

import (
	"fmt"

	"pitchfork/internal/isa"
)

// RunSequential executes the machine's canonical sequential schedule
// (Def. B.3/B.4): every fetched instruction is executed and retired
// before the next fetch, with branch and return-target guesses chosen
// correctly so no speculation occurs. It returns the schedule it
// played and the observation trace. Execution stops at a halt point or
// after maxInstrs retires, whichever comes first — the budget is how
// Theorem B.7's "sequential execution of exactly N instructions" is
// expressed, so hitting it is not an error; callers that require
// termination should check Halted afterwards.
//
// This is the ⇓seq of Theorem 3.2: the specification an out-of-order
// execution must agree with.
func RunSequential(m *Machine, maxInstrs int) (Schedule, Trace, error) {
	var sched Schedule
	var trace Trace
	step := func(d Directive) error {
		obs, err := m.Step(d)
		sched = append(sched, d)
		trace = append(trace, obs...)
		return err
	}
	for n := 0; n < maxInstrs; n++ {
		in := m.Instr()
		if in == nil {
			return sched, trace, nil // halt point
		}
		var err error
		switch in.Kind {
		case isa.KOp, isa.KLoad:
			err = seq(step, Fetch(), Execute(m.Buf.Max()+1), Retire())
		case isa.KFence:
			err = seq(step, Fetch(), Retire())
		case isa.KStore:
			i := m.Buf.Max() + 1
			if in.Src.IsReg {
				err = seq(step, Fetch(), ExecuteValue(i), ExecuteAddr(i), Retire())
			} else {
				// Immediate data is pre-resolved at fetch.
				err = seq(step, Fetch(), ExecuteAddr(i), Retire())
			}
		case isa.KBr:
			taken, evalErr := m.peekBranch(in)
			if evalErr != nil {
				return sched, trace, evalErr
			}
			err = seq(step, FetchGuess(taken), Execute(m.Buf.Max()+1), Retire())
		case isa.KJmpi:
			target, ok := m.PeekJmpi(in)
			if !ok {
				return sched, trace, fmt.Errorf("core: sequential jmpi at %d has no resolvable target", m.PC)
			}
			err = seq(step, FetchTarget(target), Execute(m.Buf.Max()+1), Retire())
		case isa.KCall:
			i := m.Buf.Max() + 1
			err = seq(step, Fetch(), Execute(i+1), ExecuteAddr(i+2), Retire())
		case isa.KRet:
			i := m.Buf.Max() + 1
			fetchD := Fetch()
			if _, haveTop := m.RSB.Top(); !haveTop {
				if m.RSB.Policy() == RSBRefuse {
					return sched, trace, fmt.Errorf("core: sequential ret at %d with empty RSB under refuse policy", m.PC)
				}
				target, ok := m.PeekRet()
				if !ok {
					return sched, trace, fmt.Errorf("core: sequential ret at %d has no resolvable return address", m.PC)
				}
				fetchD = FetchTarget(target)
			}
			err = seq(step, fetchD, Execute(i+1), Execute(i+2), Execute(i+3), Retire())
		default:
			return sched, trace, fmt.Errorf("core: sequential: unknown instruction kind %v at %d", in.Kind, m.PC)
		}
		if err != nil {
			return sched, trace, err
		}
	}
	return sched, trace, nil
}

func seq(step func(Directive) error, ds ...Directive) error {
	for _, d := range ds {
		if err := step(d); err != nil {
			return err
		}
	}
	return nil
}

// peekBranch evaluates a branch condition against the committed state;
// only valid when the reorder buffer is empty, which sequential
// execution guarantees at fetch time.
func (m *Machine) peekBranch(in *isa.Instr) (bool, error) {
	vals, ok := m.ResolveOperands(m.Buf.Max()+1, in.Args)
	if !ok {
		return false, fmt.Errorf("core: sequential branch at %d has unresolved operands", m.PC)
	}
	v, err := isa.Eval(in.Op, vals)
	if err != nil {
		return false, err
	}
	return v.W != 0, nil
}
