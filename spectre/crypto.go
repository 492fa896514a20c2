package spectre

import (
	"fmt"
	"strings"

	"pitchfork/internal/crypto"
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
	rows, err := crypto.Table2()
	if err != nil {
		return nil, fmt.Errorf("spectre: %w", err)
	}
	out := make([]Table2Row, len(rows))
	for i, r := range rows {
		out[i] = Table2Row{Case: r.Case, C: r.C.String(), FaCT: r.FaCT.String()}
	}
	return out, nil
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
