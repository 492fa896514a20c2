// Quickstart: build the paper's Figure 1 gadget against the public
// spectre API, prove it is sequentially constant-time, catch the
// Spectre v1 violation with the concrete detector, then find the same
// leak with no concrete attacker input at all — the symbolic detector
// running on the same engine, witness included.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"pitchfork/spectre"
)

func main() {
	const (
		ra = spectre.Reg(0)
		rb = spectre.Reg(1)
		rc = spectre.Reg(2)
	)
	// if (ra < 4) { rb = A[ra]; rc = B[rb] } — with Key adjacent to A.
	prog := spectre.NewProgramBuilder().
		Br(spectre.OpGt, []spectre.Operand{spectre.Imm(4), spectre.R(ra)}, 2, 4).
		Load(rb, spectre.Imm(0x40), spectre.R(ra)).
		Load(rc, spectre.Imm(0x44), spectre.R(rb)).
		Public(0x40, 10, 11, 12, 13).
		Public(0x44, 20, 21, 22, 23).
		Secret(0x48, 0xA0, 0xA1, 0xA2, 0xA3).
		SetReg(ra, 9). // attacker-chosen, out of bounds
		MustBuild()

	seq, err := prog.Sequential(100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential trace: %s\n", seq.Trace)
	fmt.Printf("sequentially constant-time: %t\n\n", seq.SecretFree())

	an, err := spectre.New(spectre.WithBound(20), spectre.WithStopAtFirst(true))
	if err != nil {
		log.Fatal(err)
	}
	rep, err := an.Run(context.Background(), prog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("speculative analysis:", rep.Summary())
	for _, f := range rep.Findings {
		fmt.Printf("  schedule: %s\n", strings.Join(f.Schedule, "; "))
		fmt.Printf("  trace:    %s\n", f.Trace)
	}

	// The same gadget with the attacker index unconstrained: symbolic
	// mode shares the engine, so WithStopAtFirst (like every option)
	// composes with it, and each finding carries a witness index.
	symProg := spectre.NewProgramBuilder().
		Br(spectre.OpGt, []spectre.Operand{spectre.Imm(4), spectre.R(ra)}, 2, 4).
		Load(rb, spectre.Imm(0x40), spectre.R(ra)).
		Load(rc, spectre.Imm(0x44), spectre.R(rb)).
		Public(0x40, 10, 11, 12, 13).
		Public(0x44, 20, 21, 22, 23).
		Secret(0x48, 0xA0, 0xA1, 0xA2, 0xA3).
		SymbolicReg(ra, "x"). // any attacker-chosen index
		MustBuild()
	symAn, err := spectre.New(
		spectre.WithSymbolic(true),
		spectre.WithStopAtFirst(true),
	)
	if err != nil {
		log.Fatal(err)
	}
	symRep, err := symAn.Run(context.Background(), symProg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsymbolic analysis:  ", symRep.Summary())
	for _, f := range symRep.Findings {
		fmt.Printf("  witness:  x = %d\n", f.Witness["x"])
	}
	if symRep.SecretFree {
		log.Fatal("symbolic mode must rediscover the v1 leak")
	}
}
