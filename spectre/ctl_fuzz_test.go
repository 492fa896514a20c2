package spectre_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"pitchfork/internal/testcases"
	"pitchfork/spectre"
)

// FuzzCTL feeds arbitrary source to the CTL front end under both
// backends. The lexer, parser, checker and code generator must never
// panic: malformed source is an error. Every program that compiles
// round-trips through the wire form: marshal, unmarshal and marshal
// again give the same bytes, and the decoded program has the compiled
// one's fingerprint.
func FuzzCTL(f *testing.F) {
	for _, set := range [][]testcases.Case{testcases.Kocher(), testcases.SpecOnlyV1(), testcases.V11()} {
		for _, c := range set {
			f.Add(c.Source(), false)
		}
	}
	f.Add(kocher01Source(), true)
	f.Fuzz(func(t *testing.T, src string, fact bool) {
		mode := spectre.ModeC
		if fact {
			mode = spectre.ModeFaCT
		}
		p, err := spectre.CompileCTL(src, mode)
		if err != nil {
			return
		}
		once, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("compiled program does not marshal: %v", err)
		}
		var q spectre.Program
		if err := json.Unmarshal(once, &q); err != nil {
			t.Fatalf("wire form does not decode: %v\n%s", err, once)
		}
		twice, err := json.Marshal(&q)
		if err != nil {
			t.Fatalf("decoded program does not re-marshal: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("wire round trip is not byte-identical:\n%s\n%s", once, twice)
		}
		if p.Fingerprint() != q.Fingerprint() {
			t.Fatal("fingerprint changed across the wire round trip")
		}
	})
}
