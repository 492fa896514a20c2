package spectre_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pitchfork/spectre"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden report fixture")

// TestReportGoldenJSON pins the wire schema: any change to the
// JSON encoding of Report/Finding/Observation is a breaking change
// for downstream consumers and must show up as a diff here.
// Regenerate deliberately with: go test ./spectre -run Golden -update
func TestReportGoldenJSON(t *testing.T) {
	rep, err := mustNew(t,
		spectre.WithBound(20),
		spectre.WithForwardHazards(false),
		spectre.WithStopAtFirst(true),
	).Run(context.Background(), v1Program(9))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "report.golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report JSON schema drifted from golden fixture\n-- got --\n%s\n-- want --\n%s", got, want)
	}
}

// TestSymbolicReportGoldenJSON pins the wire schema of a symbolic run
// on the unified engine: the same Report shape as concrete mode (the
// schema is backward-compatible), now with DedupHits populated by the
// shared engine's fingerprint table, the attacker schedule recorded,
// and the witness assignment attached. With dedup on, which
// reconverged twin survives — and hence the schedule prefixes under
// its subtree — follows from the depth-first order of the one
// exploration goroutine, so the fixture pins them byte for byte.
// Regenerate deliberately with: go test ./spectre -run Golden -update
func TestSymbolicReportGoldenJSON(t *testing.T) {
	p := figure1Symbolic(t)
	rep, err := mustNew(t, spectre.WithSymbolic(true)).Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "report.symbolic.golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("symbolic report JSON schema drifted from golden fixture\n-- got --\n%s\n-- want --\n%s", got, want)
	}
}

// TestRepairGoldenJSON pins the repair wire schema — outcome, chosen
// strategy, patch sites, per-strategy portfolio rows, and the cost
// block with the sequential estimates — on a serial auto-portfolio
// repair of the Figure 1 gadget. Any field drift is a breaking change
// for downstream consumers and must show up as a diff here.
// Regenerate deliberately with: go test ./spectre -run Golden -update
func TestRepairGoldenJSON(t *testing.T) {
	res, err := mustNew(t).Repair(context.Background(), v1Program(9))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "repair.golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("repair JSON schema drifted from golden fixture\n-- got --\n%s\n-- want --\n%s", got, want)
	}
}

// TestVersionedReportGoldenJSON pins the versioned wire shape the
// serving layer emits: SchemaVersion stamped explicitly plus the cache
// provenance fields (CacheHit, Coalesced) set. The plain goldens above
// prove the same report with these fields unset stays byte-identical
// to the pre-versioning encoding — together the two pins are the
// compatibility policy (doc.go, "Wire schema versioning") in
// executable form.
// Regenerate deliberately with: go test ./spectre -run Golden -update
func TestVersionedReportGoldenJSON(t *testing.T) {
	rep, err := mustNew(t,
		spectre.WithBound(20),
		spectre.WithForwardHazards(false),
		spectre.WithStopAtFirst(true),
	).Run(context.Background(), v1Program(9))
	if err != nil {
		t.Fatal(err)
	}
	rep.SchemaVersion = spectre.ReportSchemaVersion
	rep.CacheHit = true
	rep.Coalesced = true
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "report.versioned.golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("versioned report JSON schema drifted from golden fixture\n-- got --\n%s\n-- want --\n%s", got, want)
	}
}

// TestReportJSONRoundTrip checks the schema decodes back into the
// same values — the property a service consuming findings relies on.
func TestReportJSONRoundTrip(t *testing.T) {
	rep, err := mustNew(t, spectre.WithBound(20)).Run(context.Background(), v1Program(9))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back spectre.Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Summary() != rep.Summary() {
		t.Fatalf("round trip drift:\n got %s\nwant %s", back.Summary(), rep.Summary())
	}
	if len(back.Findings) != len(rep.Findings) {
		t.Fatalf("findings count drifted: %d vs %d", len(back.Findings), len(rep.Findings))
	}
	for i := range back.Findings {
		if back.Findings[i].String() != rep.Findings[i].String() {
			t.Fatalf("finding %d drifted", i)
		}
	}
}
