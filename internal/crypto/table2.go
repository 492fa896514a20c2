package crypto

import (
	"pitchfork/internal/core"
	"pitchfork/internal/ct"
	"pitchfork/internal/pitchfork"
)

// Finding is one cell of Table 2.
type Finding uint8

const (
	// Clean: no SCT violation found at either phase.
	Clean Finding = iota
	// Flagged: violation found without forwarding-hazard detection
	// (the paper's plain checkmark).
	Flagged
	// FlaggedFwd: violation found only with forwarding-hazard
	// detection (the paper's "f").
	FlaggedFwd
)

// String renders the cell in the paper's notation.
func (f Finding) String() string {
	switch f {
	case Flagged:
		return "✓"
	case FlaggedFwd:
		return "f"
	default:
		return "–"
	}
}

// Row is one Table 2 line.
type Row struct {
	Case string
	C    Finding
	FaCT Finding
}

// Analyze runs the paper's two-phase procedure on one build, stopping
// each phase at its first violation, and folds the two reports into a
// Table 2 cell.
func Analyze(c Case, mode ct.Mode) (Finding, error) {
	comp, err := c.Build(mode)
	if err != nil {
		return Clean, err
	}
	mk := func() *core.Machine { return core.New(comp.Prog) }
	p1, p2, err := pitchfork.AnalyzeProcedure(mk, pitchfork.Options{StopAtFirst: true})
	switch {
	case err != nil:
		return Clean, err
	case !p1.SecretFree():
		return Flagged, nil
	case !p2.SecretFree():
		return FlaggedFwd, nil
	}
	return Clean, nil
}

// Table2 regenerates the full table: every case study under both
// toolchains.
func Table2() ([]Row, error) {
	var rows []Row
	for _, c := range Cases() {
		fc, err := Analyze(c, ct.ModeC)
		if err != nil {
			return nil, err
		}
		ff, err := Analyze(c, ct.ModeFaCT)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{Case: c.Name, C: fc, FaCT: ff})
	}
	return rows, nil
}
