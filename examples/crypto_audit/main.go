// Crypto audit: regenerate the paper's Table 2 — the four case
// studies (curve25519-donna, libsodium secretbox, OpenSSL ssl3 record
// validation, OpenSSL MEE-CBC), each compiled under the branchy C
// backend and the constant-time FaCT backend, analyzed with the
// §4.2.1 two-phase procedure.
package main

import (
	"fmt"
	"log"

	"pitchfork/spectre"
)

func main() {
	rows, err := spectre.Table2()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Table 2 — ✓: violation found; f: found only with forwarding-hazard detection; –: clean")
	fmt.Println()
	fmt.Print(spectre.RenderTable2(rows))

	// The paper's Table 2 cells, C then FaCT.
	want := map[string][2]string{
		"curve25519-donna":             {"–", "–"},
		"libsodium secretbox":          {"✓", "–"},
		"OpenSSL ssl3 record validate": {"✓", "f"},
		"OpenSSL MEE-CBC":              {"✓", "f"},
	}
	if len(rows) != len(want) {
		log.Fatalf("got %d rows, want the paper's %d", len(rows), len(want))
	}
	for _, r := range rows {
		if w, ok := want[r.Case]; !ok || r.C != w[0] || r.FaCT != w[1] {
			log.Fatalf("%s: C=%s FaCT=%s, want the paper's C=%s FaCT=%s", r.Case, r.C, r.FaCT, w[0], w[1])
		}
	}
}
