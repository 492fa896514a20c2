package spectre_test

import (
	"context"
	"errors"
	"testing"

	"pitchfork/spectre"
)

func TestAnalyzeBatchMatchesIndividualRuns(t *testing.T) {
	an := mustNew(t, spectre.WithBound(20), spectre.WithForwardHazards(true), spectre.WithWorkers(4))
	progs := []*spectre.Program{v1Program(9), v1Program(1), v4Program(), doubleV1Program()}
	items := make([]spectre.BatchItem, len(progs))
	for i, p := range progs {
		items[i] = spectre.BatchItem{Program: p}
	}
	results := an.AnalyzeBatch(context.Background(), items)
	if len(results) != len(progs) {
		t.Fatalf("got %d results for %d programs", len(results), len(progs))
	}
	reports := make([]*spectre.Report, len(results))
	for i, p := range progs {
		if results[i].Err != nil {
			t.Fatalf("item %d: %v", i, results[i].Err)
		}
		reports[i] = results[i].Report
		solo := mustRun(t, mustNew(t, spectre.WithBound(20), spectre.WithForwardHazards(true)), p)
		if reports[i] == nil {
			t.Fatalf("report %d missing", i)
		}
		if reports[i].SecretFree != solo.SecretFree || len(reports[i].Findings) != len(solo.Findings) {
			t.Fatalf("report %d diverges from the individual run: batch %s, solo %s",
				i, reports[i].Summary(), solo.Summary())
		}
	}
	// The expected verdicts, for good measure.
	if reports[0].SecretFree || !reports[1].SecretFree || reports[2].SecretFree || reports[3].SecretFree {
		t.Fatalf("verdicts wrong: %t %t %t %t", reports[0].SecretFree,
			reports[1].SecretFree, reports[2].SecretFree, reports[3].SecretFree)
	}
}

func TestAnalyzeBatchNamesAndNilProgram(t *testing.T) {
	an := mustNew(t, spectre.WithBound(20), spectre.WithWorkers(2))
	items := []spectre.BatchItem{
		{Name: "leaky", Program: v1Program(9)},
		{Name: "broken", Program: nil},
		{Name: "clean", Program: v1Program(1)},
	}
	results := an.AnalyzeBatch(context.Background(), items)
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Name != "leaky" || results[1].Name != "broken" || results[2].Name != "clean" {
		t.Fatalf("names out of order: %+v", results)
	}
	if results[0].Err != nil || results[0].Report == nil || results[0].Report.SecretFree {
		t.Fatalf("leaky item wrong: %+v", results[0])
	}
	if results[1].Err == nil || results[1].Report != nil {
		t.Fatalf("nil program must error without a report: %+v", results[1])
	}
	if results[2].Err != nil || results[2].Report == nil || !results[2].Report.SecretFree {
		t.Fatalf("clean item wrong: %+v", results[2])
	}
}

func TestAnalyzeBatchCancelledContext(t *testing.T) {
	an := mustNew(t, spectre.WithBound(20), spectre.WithWorkers(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := an.AnalyzeBatch(ctx, []spectre.BatchItem{
		{Name: "a", Program: v1Program(9)},
		{Name: "b", Program: v1Program(9)},
	})
	for _, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("item %s: err = %v, want context.Canceled", r.Name, r.Err)
		}
	}
}
