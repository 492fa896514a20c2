package core

import (
	"fmt"
	"strings"

	"pitchfork/internal/isa"
)

// DKind discriminates attacker directives.
type DKind uint8

const (
	DFetch       DKind = iota // fetch
	DFetchGuess               // fetch: true / fetch: false (conditional branches)
	DFetchTarget              // fetch: n′ (indirect jumps; rets with empty RSB)
	DExecute                  // execute i
	DExecValue                // execute i : value (stores)
	DExecAddr                 // execute i : addr (stores)
	DExecFwd                  // execute i : fwd j (aliasing prediction, §3.5)
	DRetire                   // retire
)

// Directive is a single attacker-supplied scheduling command. The
// attacker resolves all scheduling and prediction non-determinism, so a
// directive sequence ("schedule") fully determines an execution
// (Lemma B.1).
type Directive struct {
	Kind  DKind
	Taken bool // DFetchGuess: the guessed branch outcome
	// Arm disambiguates domain-level forks on one execute directive —
	// a symbolic branch condition resolving into both feasible worlds.
	// 0 = no fork; ArmTaken / ArmNotTaken name the world. Concrete
	// executions never set it.
	Arm    uint8
	Target isa.Addr // DFetchTarget: the guessed program point
	I      int      // DExecute*: the reorder-buffer index to execute
	From   int      // DExecFwd: the store index j to forward from
}

// Arm values for Directive.Arm.
const (
	ArmTaken    uint8 = 1
	ArmNotTaken uint8 = 2
)

// Fetch returns the plain fetch directive.
func Fetch() Directive { return Directive{Kind: DFetch} }

// FetchGuess returns fetch: true or fetch: false.
func FetchGuess(taken bool) Directive { return Directive{Kind: DFetchGuess, Taken: taken} }

// FetchTarget returns fetch: n.
func FetchTarget(n isa.Addr) Directive { return Directive{Kind: DFetchTarget, Target: n} }

// Execute returns execute i.
func Execute(i int) Directive { return Directive{Kind: DExecute, I: i} }

// ExecuteValue returns execute i : value.
func ExecuteValue(i int) Directive { return Directive{Kind: DExecValue, I: i} }

// ExecuteAddr returns execute i : addr.
func ExecuteAddr(i int) Directive { return Directive{Kind: DExecAddr, I: i} }

// ExecuteFwd returns execute i : fwd j.
func ExecuteFwd(i, j int) Directive { return Directive{Kind: DExecFwd, I: i, From: j} }

// Retire returns the retire directive.
func Retire() Directive { return Directive{Kind: DRetire} }

// String renders the directive in the paper's syntax.
func (d Directive) String() string {
	switch d.Kind {
	case DFetch:
		return "fetch"
	case DFetchGuess:
		return fmt.Sprintf("fetch: %t", d.Taken)
	case DFetchTarget:
		return fmt.Sprintf("fetch: %d", d.Target)
	case DExecute:
		switch d.Arm {
		case ArmTaken:
			return fmt.Sprintf("execute %d : taken", d.I)
		case ArmNotTaken:
			return fmt.Sprintf("execute %d : not-taken", d.I)
		}
		return fmt.Sprintf("execute %d", d.I)
	case DExecValue:
		return fmt.Sprintf("execute %d : value", d.I)
	case DExecAddr:
		return fmt.Sprintf("execute %d : addr", d.I)
	case DExecFwd:
		return fmt.Sprintf("execute %d : fwd %d", d.I, d.From)
	case DRetire:
		return "retire"
	}
	return fmt.Sprintf("directive(%d)", uint8(d.Kind))
}

// Schedule is a directive sequence D. Its retire count is the paper's
// N (the number of retired instructions in a big step).
type Schedule []Directive

// String renders the schedule as "d1; d2; …".
func (s Schedule) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = d.String()
	}
	return strings.Join(parts, "; ")
}
