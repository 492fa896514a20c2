package spectre

import (
	"testing"

	"pitchfork/internal/crypto"
	"pitchfork/internal/ct"
)

// TestTable2 reproduces the paper's Table 2 pattern:
//
//	curve25519-donna              –   –
//	libsodium secretbox           ✓   –
//	OpenSSL ssl3 record validate  ✓   f
//	OpenSSL MEE-CBC               ✓   f
func TestTable2(t *testing.T) {
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]string{
		"curve25519-donna":             {"–", "–"},
		"libsodium secretbox":          {"✓", "–"},
		"OpenSSL ssl3 record validate": {"✓", "f"},
		"OpenSSL MEE-CBC":              {"✓", "f"},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		w, ok := want[r.Case]
		if !ok {
			t.Errorf("unexpected case %q", r.Case)
			continue
		}
		if r.C != w[0] || r.FaCT != w[1] {
			t.Errorf("%s: got C=%s FaCT=%s, want C=%s FaCT=%s",
				r.Case, r.C, r.FaCT, w[0], w[1])
		}
	}
}

// Table 2, one benchmark per case study × backend: the §4.2.1
// two-phase procedure at the paper's bounds (250 / 20). StopAtFirst
// keeps flagged cells cheap; clean cells pay for the full exploration
// like the original.

func benchTable2(b *testing.B, caseIdx int, mode ct.Mode, want string) {
	c := crypto.Cases()[caseIdx]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		got, err := table2Cell(c, mode)
		if err != nil {
			b.Fatal(err)
		}
		if got != want {
			b.Fatalf("%s/%s: cell = %s, want %s", c.Name, mode, got, want)
		}
	}
}

func BenchmarkTable2_Donna_C(b *testing.B)        { benchTable2(b, 0, ct.ModeC, "–") }
func BenchmarkTable2_Donna_FaCT(b *testing.B)     { benchTable2(b, 0, ct.ModeFaCT, "–") }
func BenchmarkTable2_Secretbox_C(b *testing.B)    { benchTable2(b, 1, ct.ModeC, "✓") }
func BenchmarkTable2_Secretbox_FaCT(b *testing.B) { benchTable2(b, 1, ct.ModeFaCT, "–") }
func BenchmarkTable2_SSL3_C(b *testing.B)         { benchTable2(b, 2, ct.ModeC, "✓") }
func BenchmarkTable2_SSL3_FaCT(b *testing.B)      { benchTable2(b, 2, ct.ModeFaCT, "f") }
func BenchmarkTable2_MEE_C(b *testing.B)          { benchTable2(b, 3, ct.ModeC, "✓") }
func BenchmarkTable2_MEE_FaCT(b *testing.B)       { benchTable2(b, 3, ct.ModeFaCT, "f") }
