package main

// The verdict oracle. Every answer below is written by hand from the
// paper and from reading each program; none is computed by the engine
// under test. A decided verdict that disagrees with it fails the run.

// label is the expected outcome of one corpus program.
type label uint8

const (
	// clean: no secret-dependent observation under any schedule.
	clean label = iota
	// flagged: a speculative leak without forwarding hazards (v1, v1.1,
	// v2, ret2spec).
	flagged
	// fwdOnly: leaks only under forwarding-hazard schedules (v4-style).
	fwdOnly
	// seqLeak: leaks even sequentially, so no speculation barrier can
	// repair it.
	seqLeak
)

func (l label) String() string {
	return [...]string{"clean", "flagged", "fwd-only", "sequential-leak"}[l]
}

// wantSecretFree is the expected verdict of an analysis at the shipped
// default configuration, which explores forwarding hazards.
func (l label) wantSecretFree() bool { return l == clean }

// wantRepair is the expected repair outcome (spectre.Repair* strings).
func (l label) wantRepair() string {
	switch l {
	case clean:
		return "clean"
	case seqLeak:
		return "sequential-leak"
	default:
		return "repaired"
	}
}

// corpusLabels holds the concrete-mode answer for every corpus program.
//
//   - Kocher 01–15 are bounds-check bypasses; 04 (wrong mask) and 13
//     (check against 8 for a 4-cell array) overrun into the key on the
//     architectural path too.
//   - The spec-only v1 suite is architecturally safe by construction.
//   - v11_01/02 forward a speculatively stored secret (v1.1); v11_03/04
//     read a stale secret under a late-resolving store (v4).
//   - Gallery: fig1 is the v1 gadget, fig6 v1.1 and fig7 v4 (stale
//     secret under a late store address). fig8 and fig13 are the fence
//     and retpoline mitigations. fig4 and fig5 hold no secret at all.
//     fig12's gadget loads a secret value from a public address, so no
//     observation is secret. fig2 needs an aliasing predictor (§3.5)
//     and fig11 an attacker-chosen indirect target (v2). The checker
//     answers clean for both: per §4 it "does not detect SCT violations
//     based on alias prediction, indirect jumps, or return stack
//     buffers".
var corpusLabels = map[string]label{
	"kocher01": flagged, "kocher02": flagged, "kocher03": flagged,
	"kocher04": seqLeak, "kocher05": flagged, "kocher06": flagged,
	"kocher07": flagged, "kocher08": flagged, "kocher09": flagged,
	"kocher10": flagged, "kocher11": flagged, "kocher12": flagged,
	"kocher13": seqLeak, "kocher14": flagged, "kocher15": flagged,

	"specv1_01": flagged, "specv1_02": flagged, "specv1_03": flagged,
	"specv1_04": flagged, "specv1_05": flagged, "specv1_06": flagged,

	"v11_01": flagged, "v11_02": flagged, "v11_03": fwdOnly, "v11_04": fwdOnly,

	"fig1": flagged, "fig2": clean, "fig4": clean, "fig5": clean,
	"fig6": flagged, "fig7": fwdOnly, "fig8": clean, "fig11": clean,
	"fig12": clean, "fig13": clean,
}

// table2Cell is the expected Table 2 cell of one build.
type table2Cell uint8

const (
	cellClean   table2Cell = iota // "–"
	cellFlagged                   // "✓": found without forwarding hazards
	cellFwd                       // "f": found only with forwarding hazards
)

func (c table2Cell) String() string { return [...]string{"–", "✓", "f"}[c] }

// table2Cells is the paper's Table 2: [C build, FaCT build] per case.
var table2Cells = map[string][2]table2Cell{
	"curve25519-donna":             {cellClean, cellClean},
	"libsodium secretbox":          {cellFlagged, cellClean},
	"OpenSSL ssl3 record validate": {cellFlagged, cellFwd},
	"OpenSSL MEE-CBC":              {cellFlagged, cellFwd},
}
