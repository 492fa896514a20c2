package spectre_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"pitchfork/spectre"
)

// sparseWireProgram is a hand-written wire form whose program points
// are far apart and whose registers include numbers above 255 and the
// conventional RMSK/RSP/RTMP at the top of the register range.
const sparseWireProgram = `{"version":1,"entry":5,"instrs":[
{"pc":5,"kind":0,"dst":300,"op":0,"args":[{"reg":65534},{"w":8}],"next":4000000000},
{"pc":4000000000,"kind":3,"args":[{"reg":300}],"src":{"reg":65533},"next":4000000001},
{"pc":4000000001,"kind":2,"dst":65535,"args":[{"reg":300}],"next":4000000002},
{"pc":4000000002,"kind":1,"op":16,"args":[{"reg":65535},{"w":4}],"true":5,"false":9}],
"data":[{"a":4104,"w":7,"l":1}],
"regs":[{"r":65534,"w":4096},{"r":1000,"w":3,"l":1}]}`

// FuzzProgramWire feeds arbitrary bytes to the program wire decoder.
// Decoding must never panic. A program that decodes re-marshals to a
// canonical form: decoding that form again gives the same bytes and
// the same fingerprint. Every decoded program then runs through a
// concrete analysis under tiny budgets, which drives arbitrary
// register numbers and program points through the machine, and must
// not panic either.
func FuzzProgramWire(f *testing.F) {
	kocher, err := spectre.CompileCTL(kocher01Source(), spectre.ModeC)
	if err != nil {
		f.Fatal(err)
	}
	raw, err := json.Marshal(kocher)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte(sparseWireProgram))
	f.Add([]byte(`{"version":1,"entry":0,"instrs":[]}`))
	f.Add([]byte(`{"version":2}`))
	an, err := spectre.New(spectre.WithMaxStates(64), spectre.WithMaxRetired(32))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p spectre.Program
		if json.Unmarshal(data, &p) != nil {
			return
		}
		once, err := json.Marshal(&p)
		if err != nil {
			t.Fatalf("decoded program does not re-marshal: %v", err)
		}
		var q spectre.Program
		if err := json.Unmarshal(once, &q); err != nil {
			t.Fatalf("canonical form does not decode: %v\n%s", err, once)
		}
		twice, err := json.Marshal(&q)
		if err != nil {
			t.Fatalf("re-decoded program does not re-marshal: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("re-marshalling is not idempotent:\n%s\n%s", once, twice)
		}
		if p.Fingerprint() != q.Fingerprint() {
			t.Fatal("fingerprint changed across a canonical round trip")
		}
		_, _ = an.Run(context.Background(), &p)
	})
}
