// Package testcases contains the detector's test corpora (§4.2): the
// fifteen well-known Kocher Spectre v1 victim functions ported to CTL,
// the paper's new suite of variants that violate SCT only under
// speculation (the original Kocher cases often leak sequentially too),
// and its Spectre v1.1 store-variant suite.
//
// Every case declares the attacker-controlled input as the global x
// and the secret as an array adjacent to the public one, so both the
// concrete detector (with the given out-of-bounds x) and the symbolic
// detector (with x unconstrained) can analyze it.
package testcases

import (
	"fmt"
	"strings"

	"pitchfork/internal/core"
	"pitchfork/internal/ct"
	"pitchfork/internal/mem"
	"pitchfork/internal/pitchfork"
	"pitchfork/internal/symx"
)

// Case is one corpus entry.
type Case struct {
	Name string
	// Src is the CTL source; compiled with ModeC (the corpora model C
	// code).
	Src string
	// SequentialLeak marks cases that violate constant-time even
	// sequentially (true for several of the original Kocher cases).
	SequentialLeak bool
	// NeedsFwdHazards marks cases only detectable with
	// forwarding-hazard schedules (the v4-style members of the v1.1
	// suite).
	NeedsFwdHazards bool
}

// header declares the common memory geography: a1 is the
// bounds-checked public array, secret spans the adjacent cells, a2 is
// the transmission table, x the attacker's index (out of bounds
// architecturally), and temp the sink.
const header = `
public size = 4;
public a1[4] = {1, 2, 3, 4};
secret key[8] = {160, 161, 162, 163, 164, 165, 166, 167};
public a2[64];
public x = 5;
public temp;
`

// Kocher returns the fifteen classic victim functions. Each preserves
// the mechanism of the corresponding case in Kocher's list — what
// varies is how the bounds check, the index arithmetic, and the
// transmission are expressed.
func Kocher() []Case {
	mk := func(n int, body string, seqLeak bool) Case {
		return Case{
			Name:           fmt.Sprintf("kocher%02d", n),
			Src:            header + "fn main() {\n" + body + "\n}",
			SequentialLeak: seqLeak,
		}
	}
	return []Case{
		// 01: the baseline bounds-check bypass.
		mk(1, `
  if (x < size) {
    temp = temp & a2[a1[x] * 2];
  }`, false),
		// 02: the check is hoisted into a containing condition.
		mk(2, `
  if (x < size) {
    if (a1[x] > 0) {
      temp = temp & a2[a1[x] * 2];
    }
  }`, false),
		// 03: the access sits in a loop running x times.
		mk(3, `
  var i = 0;
  while (i < 2) {
    if (x < size) {
      temp = temp & a2[a1[x] * 2];
    }
    i = i + 1;
  }`, false),
		// 04: a masking "mitigation" with the wrong mask — the index
		// still overruns into the adjacent key, so it leaks even
		// sequentially.
		mk(4, `
  temp = temp & a2[a1[x & 7] * 2];`, true),
		// 05: check against a bound read from memory.
		mk(5, `
  if (x < a2[0] + size) {
    temp = temp & a2[a1[x] * 2];
  }`, false),
		// 06: comparison inverted, leak on the else arm.
		mk(6, `
  if (x >= size) {
    temp = temp + 1;
  } else {
    temp = temp & a2[a1[x] * 2];
  }`, false),
		// 07: a separate "is it safe" flag computed first.
		mk(7, `
  var ok = x < size;
  if (ok) {
    temp = temp & a2[a1[x] * 2];
  }`, false),
		// 08: the C ternary (x < size ? x : 0) compiled, as compilers
		// do, to a branch — the selected index is safe architecturally
		// but not speculatively.
		mk(8, `
  var i = 0;
  if (x < size) {
    i = x;
  }
  temp = temp & a2[a1[i] * 2];`, false),
		// 09: check with a redundant second comparison.
		mk(9, `
  if ((x < size) && (x >= 0)) {
    temp = temp & a2[a1[x] * 2];
  }`, false),
		// 10: leak via comparison rather than load address.
		mk(10, `
  if (x < size) {
    if (a1[x] == 200) {
      temp = temp + a2[0];
    }
  }`, false),
		// 11: transmission through a helper function.
		mk(11, `
  if (x < size) {
    temp = temp & leak(a1[x]);
  }`, false),
		// 12: index arithmetic mixes two attacker values.
		mk(12, `
  var y = x + 1;
  if (y < size) {
    temp = temp & a2[a1[y] * 2];
  }`, false),
		// 13: the check compares against a constant larger than the
		// array (an outright bug: leaks sequentially).
		mk(13, `
  if (x < 8) {
    temp = temp & a2[a1[x] * 2];
  }`, true),
		// 14: leak through a store address rather than a load.
		mk(14, `
  if (x < size) {
    a2[a1[x] * 2] = temp;
  }`, false),
		// 15: attacker-controlled pointer-style double indirection.
		mk(15, `
  if (x < size) {
    temp = temp & a2[a1[a1[x] % 8] * 2];
  }`, false),
	}
}

// leakHelper is appended to sources that call leak().
const leakHelper = `
fn leak(v) {
  return a2[v * 2];
}`

// SpecOnlyV1 is the paper's new v1 suite: cases constructed so that no
// sequential execution leaks (the out-of-bounds path is architecturally
// dead) — only speculation exposes them.
func SpecOnlyV1() []Case {
	mk := func(n int, body string) Case {
		return Case{
			Name: fmt.Sprintf("specv1_%02d", n),
			Src:  header + "fn main() {\n" + body + "\n}",
		}
	}
	return []Case{
		mk(1, `
  if (x < size) {
    temp = temp & a2[a1[x] * 2];
  }`),
		mk(2, `
  var i = 0;
  while (i < size) {
    temp = temp & a2[a1[i] * 2];
    i = i + 1;
  }`),
		mk(3, `
  if (x * 2 < size) {
    temp = temp & a2[a1[x * 2] * 2];
  }`),
		mk(4, `
  if (x < size) {
    if (x > 0) {
      temp = temp & a2[a1[x] * 2];
    }
  }`),
		mk(5, `
  if (x < size) {
    var v = a1[x];
    var w = v * 2 + 1;
    temp = temp & a2[w];
  }`),
		mk(6, `
  if (x < size) {
    temp = leak(a1[x]);
  }`),
	}
}

// V11 is the paper's Spectre v1.1 suite: speculative stores forward
// secrets (or stale secrets) to later loads.
func V11() []Case {
	v11Header := `
public size = 4;
public a1[4] = {1, 2, 3, 4};
public pubA[4] = {5, 6, 7, 8};
secret key[8] = {160, 161, 162, 163, 164, 165, 166, 167};
public a2[64];
public x = 5;
public temp;
secret skey = 77;
`
	mkBody := func(n int, body string, fwd bool) Case {
		return Case{
			Name:            fmt.Sprintf("v11_%02d", n),
			Src:             v11Header + "fn main() {\n" + body + "\n}",
			NeedsFwdHazards: fwd,
		}
	}
	return []Case{
		// Speculative out-of-bounds write of a secret into the public
		// array that follows a1, then a benign load pair (Figure 6's
		// shape: the store at a1[5] lands on pubA[1]).
		mkBody(1, `
  if (x < size) {
    a1[x] = skey;
  }
  temp = a2[pubA[1]];
  temp = a2[temp];`, false),
		// Same forward, with the transmission through a local.
		mkBody(2, `
  if (x < size) {
    a1[x] = skey;
  }
  var v = pubA[1];
  temp = a2[v * 2];`, false),
		// Spectre v4 member: the zeroing store's address resolves
		// late; the load reads the stale secret underneath (Figure 7's
		// shape).
		mkBody(3, `
  key[x - 5] = 0;
  var v = key[0];
  temp = a2[v * 2];`, true),
		// v4 through a helper-function boundary.
		mkBody(4, `
  scrub(x - 5);
  var v = key[0];
  temp = a2[v * 2];`, true),
	}
}

// Source returns the case's CTL source with the helper functions its
// body references appended — the self-contained unit to feed a
// compiler (Build and BuildSym use it internally).
func (c Case) Source() string { return withHelpers(c.Src) }

func withHelpers(src string) string {
	out := src
	if strings.Contains(src, "leak(") {
		out += leakHelper
	}
	if strings.Contains(src, "scrub(") {
		out += `
fn scrub(i) {
  key[i] = 0;
}`
	}
	return out
}

// Build compiles the case (ModeC) and returns a fresh machine.
func (c Case) Build() (*core.Machine, error) {
	comp, err := ct.Compile(withHelpers(c.Src), ct.ModeC)
	if err != nil {
		return nil, fmt.Errorf("testcases: %s: %w", c.Name, err)
	}
	return core.New(comp.Prog), nil
}

// BuildSym compiles the case and binds x to an unconstrained symbolic
// public input for the symbolic detector.
func (c Case) BuildSym() (*pitchfork.SymMachine, error) {
	comp, err := ct.Compile(withHelpers(c.Src), ct.ModeC)
	if err != nil {
		return nil, fmt.Errorf("testcases: %s: %w", c.Name, err)
	}
	sm := pitchfork.NewSym(comp.Prog)
	xAddr, ok := comp.GlobalAddr["x"]
	if !ok {
		return nil, fmt.Errorf("testcases: %s: no global x", c.Name)
	}
	sm.SetMem(xAddr, symx.NewVar("x", mem.Public))
	return sm, nil
}

// For the v1.1 v4-style members, the stale-store window needs the
// store architecturally in-bounds; x-4 with x=5 hits a1[1]. All other
// cases use x=5 as the out-of-bounds attacker pick.
