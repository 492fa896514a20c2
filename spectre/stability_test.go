package spectre_test

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"pitchfork/spectre"
)

// These tests pin the two halves of the verdict-cache key to fixed hex
// digests over a fixed corpus. The serving layer (internal/serve)
// persists verdicts on disk under (Program.Fingerprint,
// Config.CacheKey); if either digest rotates silently, every deployed
// cache is invalidated — and worse, a digest that rotates between
// binaries of the same wire version would split identical requests
// across keys. A failure here must be resolved by a deliberate
// version-tag bump (programWireVersion / the config key's "v1"
// prefix), never by updating the constants casually.

func kocher01Source() string {
	return `
public size = 4;
public a1[4] = {1, 2, 3, 4};
secret key[8] = {160, 161, 162, 163, 164, 165, 166, 167};
public a2[64];
public x = 5;
public temp;
fn main() {
  if (x < size) {
    temp = temp & a2[a1[x] * 2];
  }
}`
}

func TestFingerprintStability(t *testing.T) {
	kocher, err := spectre.CompileCTL(kocher01Source(), spectre.ModeC)
	if err != nil {
		t.Fatal(err)
	}
	fig1, ok := spectre.FigureByID("fig1")
	if !ok {
		t.Fatal("no fig1 in the gallery")
	}
	builder := spectre.NewProgramBuilder().
		Load(spectre.Reg(0), spectre.Imm(0x40)).
		Secret(0x40, 42).
		SetReg(spectre.Reg(1), 7).
		SymbolicReg(spectre.Reg(2), "x").
		MustBuild()

	pins := []struct {
		name string
		prog *spectre.Program
		want string
	}{
		{"kocher01", kocher, "2cf3da35c00adfb0c4bfc4eaa36505ffb6a654775b9596da0f1bed81fc672a66"},
		{"fig1", fig1.Program(), "2e13ebd3e9313357b2f0ea6565fd749a47390e25a282ffd8f23f91a9c5d582f7"},
		{"builder", builder, "e69352fd51b401b1a1682a44159345bf9cd00ed659bfc681ab061178a4ba2b6e"},
	}
	for _, p := range pins {
		if got := p.prog.Fingerprint(); got != p.want {
			t.Errorf("%s: fingerprint rotated:\n got %s\nwant %s", p.name, got, p.want)
		}
	}

	// An independent compilation of the same source fingerprints
	// identically — the property that makes CI-driven repeat traffic
	// cache at all.
	recompiled, err := spectre.CompileCTL(kocher01Source(), spectre.ModeC)
	if err != nil {
		t.Fatal(err)
	}
	if recompiled.Fingerprint() != kocher.Fingerprint() {
		t.Error("recompiling identical source changed the fingerprint")
	}

	// Any content difference must separate fingerprints.
	perturbed, err := spectre.CompileCTL(kocher01Source()+"\nfn pad() { temp = 0; }", spectre.ModeC)
	if err != nil {
		t.Fatal(err)
	}
	if perturbed.Fingerprint() == kocher.Fingerprint() {
		t.Error("distinct programs share a fingerprint")
	}
}

func TestConfigCacheKeyStability(t *testing.T) {
	if got, want := spectre.DefaultConfig().CacheKey(), "3a39ca07e3fd4a1c52291883c5ef94c6d2e0b25970a50aa7c131dc6a15633d4b"; got != want {
		t.Errorf("default config key rotated:\n got %s\nwant %s", got, want)
	}
	c := spectre.DefaultConfig()
	c.Symbolic = true
	c.Bound = 250
	c.ForwardHazards = false
	if got, want := c.CacheKey(), "5b5991c974b288e6ca7e1d69954346d869d394072b9228ff5ba49ede520c0762"; got != want {
		t.Errorf("symbolic config key rotated:\n got %s\nwant %s", got, want)
	}
}

// TestProgramWireLabels: each of the wire form's five label fields
// (operand, datum, register seed, symbolic register, symbolic memory)
// decodes 0 and 1 and re-encodes them byte-identically, and rejects 2.
func TestProgramWireLabels(t *testing.T) {
	// doc renders the program with label l[i] in field i. explicit
	// writes every label; otherwise a zero label is omitted, as
	// MarshalJSON does.
	doc := func(l [5]int, explicit bool) string {
		f := func(i int) string {
			if l[i] == 0 && !explicit {
				return ""
			}
			return fmt.Sprintf(`,"l":%d`, l[i])
		}
		return `{"version":1,"entry":1,` +
			`"instrs":[{"pc":1,"kind":0,"args":[{"w":5` + f(0) + `}],"next":2}],` +
			`"data":[{"a":64,"w":7` + f(1) + `}],` +
			`"regs":[{"r":1,"w":3` + f(2) + `}],` +
			`"symRegs":[{"r":2,"n":"x"` + f(3) + `}],` +
			`"symMem":[{"a":96,"n":"k"` + f(4) + `}]}`
	}
	fields := []string{"operand", "datum", "reg seed", "sym reg", "sym mem"}
	for i, field := range fields {
		for _, l := range []int{0, 1, 2} {
			labels := [5]int{1, 1, 1, 1, 1}
			labels[i] = l
			var p spectre.Program
			err := json.Unmarshal([]byte(doc(labels, true)), &p)
			if l > 1 {
				if err == nil {
					t.Errorf("%s label %d decoded, want an error", field, l)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s label %d: %v", field, l, err)
			}
			raw, err := json.Marshal(&p)
			if err != nil {
				t.Fatalf("%s label %d: marshal: %v", field, l, err)
			}
			if want := doc(labels, false); string(raw) != want {
				t.Errorf("%s label %d re-encodes as\n%s\nwant\n%s", field, l, raw, want)
			}
		}
	}
}

// TestProgramWireRoundTrip checks that the builder wire form preserves
// everything the fingerprint covers: a program survives
// marshal → unmarshal with an identical fingerprint and an identical
// re-encoding, for both a CTL-compiled and a hand-built program.
func TestProgramWireRoundTrip(t *testing.T) {
	kocher, err := spectre.CompileCTL(kocher01Source(), spectre.ModeC)
	if err != nil {
		t.Fatal(err)
	}
	builder := spectre.NewProgramBuilder().
		Load(spectre.Reg(0), spectre.Imm(0x40), spectre.R(spectre.Reg(2))).
		Store(spectre.SecretImm(9), spectre.Imm(0x50)).
		Br(spectre.OpLt, []spectre.Operand{spectre.R(spectre.Reg(0)), spectre.Imm(4)}, 1, 5).
		Secret(0x40, 42, 43).
		Public(0x50, 1).
		SetReg(spectre.Reg(1), 7).
		SetSecretReg(spectre.Reg(3), 8).
		SymbolicReg(spectre.Reg(2), "x").
		SymbolicSecretMem(0x60, "k").
		MustBuild()

	for _, tc := range []struct {
		name string
		prog *spectre.Program
	}{{"ctl", kocher}, {"builder", builder}} {
		raw, err := json.Marshal(tc.prog)
		if err != nil {
			t.Fatalf("%s: marshal: %v", tc.name, err)
		}
		var back spectre.Program
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", tc.name, err)
		}
		if got, want := back.Fingerprint(), tc.prog.Fingerprint(); got != want {
			t.Errorf("%s: fingerprint drifted across the wire:\n got %s\nwant %s", tc.name, got, want)
		}
		again, err := json.Marshal(&back)
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", tc.name, err)
		}
		if string(again) != string(raw) {
			t.Errorf("%s: wire form not canonical across a round trip", tc.name)
		}
		if back.Len() != tc.prog.Len() || back.Entry() != tc.prog.Entry() {
			t.Errorf("%s: structure drifted: len %d→%d entry %d→%d",
				tc.name, tc.prog.Len(), back.Len(), tc.prog.Entry(), back.Entry())
		}
	}

	// A wire-form round trip must analyze identically to the original
	// — the property that lets the service accept built programs.
	an := mustNew(t, spectre.WithBound(20))
	rep1, err := an.Run(context.Background(), kocher)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(kocher)
	var back spectre.Program
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	rep2, err := an.Run(context.Background(), &back)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(rep1)
	b2, _ := json.Marshal(rep2)
	if string(b1) != string(b2) {
		t.Errorf("wire round trip changed the verdict:\n got %s\nwant %s", b2, b1)
	}
}
