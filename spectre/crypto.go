package spectre

import (
	"context"
	"fmt"
	"strings"

	"pitchfork/internal/crypto"
	"pitchfork/internal/ct"
)

// Table2Row is one line of the paper's Table 2 reproduction: a crypto
// case study analyzed under the branchy C backend and the
// constant-time FaCT backend. Cells use the paper's notation — "✓" for
// a violation found without forwarding-hazard detection, "f" for one
// found only with it, "–" for clean.
type Table2Row struct {
	Case string `json:"case"`
	C    string `json:"c"`
	FaCT string `json:"fact"`
}

// Table2 regenerates the paper's Table 2: the four crypto case studies
// (curve25519-donna, libsodium secretbox, OpenSSL ssl3 record
// validation, OpenSSL MEE-CBC), each compiled under both backends and
// analyzed with the §4.2.1 two-phase procedure. This is the
// repository's heaviest entry point — expect seconds of exploration.
func Table2() ([]Table2Row, error) {
	var rows []Table2Row
	for _, c := range crypto.Cases() {
		fc, err := table2Cell(c, ct.ModeC)
		if err != nil {
			return nil, err
		}
		ff, err := table2Cell(c, ct.ModeFaCT)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{Case: c.Name, C: fc, FaCT: ff})
	}
	return rows, nil
}

// table2Cell builds one case study under one backend, runs RunProcedure
// on it at the default budgets with each phase stopping at its first
// violation, and names the result in the paper's notation.
func table2Cell(c crypto.Case, mode ct.Mode) (string, error) {
	comp, err := c.Build(mode)
	if err != nil {
		return "", fmt.Errorf("spectre: %w", err)
	}
	an, err := New(WithStopAtFirst(true))
	if err != nil {
		return "", err
	}
	pr, err := an.RunProcedure(context.TODO(), &Program{prog: comp.Prog})
	switch {
	case err != nil:
		return "", err
	case !pr.Phase1.SecretFree:
		return "✓", nil
	case !pr.Phase2.SecretFree:
		return "f", nil
	}
	return "–", nil
}

// RenderTable2 formats rows like the paper's Table 2.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-30s %-5s %-5s\n", "Case Study", "C", "FaCT")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-30s %-5s %-5s\n", r.Case, r.C, r.FaCT)
	}
	return b.String()
}
