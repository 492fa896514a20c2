package ct

import (
	"fmt"
	"strings"
	"testing"

	"pitchfork/internal/core"
	"pitchfork/internal/mem"
	"pitchfork/internal/pitchfork"
)

// runMain compiles and sequentially executes a CTL program, returning
// the machine for inspection.
func runMain(t *testing.T, src string, mode Mode) (*Compiled, *core.Machine) {
	t.Helper()
	c, err := Compile(src, mode)
	if err != nil {
		t.Fatalf("compile(%s): %v", mode, err)
	}
	m := core.New(c.Prog)
	if _, _, err := core.RunSequential(m, 100000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !m.Halted() {
		t.Fatalf("program did not halt (pc=%d)", m.PC)
	}
	return c, m
}

func global(t *testing.T, c *Compiled, m *core.Machine, name string, idx uint64) mem.Value {
	t.Helper()
	a, ok := c.GlobalAddr[name]
	if !ok {
		t.Fatalf("no global %q", name)
	}
	return m.Mem.Read(a + idx)
}

func TestCompileArithmetic(t *testing.T) {
	src := `
public out;
fn main() {
  var x = 6;
  var y = 7;
  out = x * y + 1 - 3;
}`
	for _, mode := range []Mode{ModeC, ModeFaCT} {
		c, m := runMain(t, src, mode)
		if got := global(t, c, m, "out", 0); got.W != 40 {
			t.Fatalf("%s: out = %v, want 40", mode, got)
		}
	}
}

func TestCompileOperators(t *testing.T) {
	src := `
public out[12];
fn main() {
  out[0] = 13 / 4;
  out[1] = 13 % 4;
  out[2] = 6 & 3;
  out[3] = 6 | 3;
  out[4] = 6 ^ 3;
  out[5] = 1 << 4;
  out[6] = 32 >> 2;
  out[7] = (3 < 4) + (4 <= 4) + (5 > 4) + (4 >= 5);
  out[8] = (3 == 3) + (3 != 3);
  out[9] = !0 + !7;
  out[10] = (1 && 2) + (0 && 2) + (0 || 3) + (0 || 0);
  out[11] = ~0 - -1;
}`
	want := []uint64{3, 1, 2, 7, 5, 16, 8, 3, 1, 1, 2, 0}
	c, m := runMain(t, src, ModeC)
	for i, w := range want {
		if got := global(t, c, m, "out", uint64(i)); got.W != mem.Word(w) {
			t.Errorf("out[%d] = %d, want %d", i, got.W, w)
		}
	}
}

func TestCompileWhileLoop(t *testing.T) {
	src := `
public out;
fn main() {
  var i = 0;
  var sum = 0;
  while (i < 10) {
    sum = sum + i;
    i = i + 1;
  }
  out = sum;
}`
	c, m := runMain(t, src, ModeC)
	if got := global(t, c, m, "out", 0); got.W != 45 {
		t.Fatalf("out = %v, want 45", got)
	}
}

func TestCompileArraysAndGlobals(t *testing.T) {
	src := `
public a[4] = {10, 20, 30, 40};
public out;
fn main() {
  var i = 0;
  var sum = 0;
  while (i < 4) {
    sum = sum + a[i];
    i = i + 1;
  }
  a[0] = sum;
  out = a[0];
}`
	c, m := runMain(t, src, ModeC)
	if got := global(t, c, m, "out", 0); got.W != 100 {
		t.Fatalf("out = %v, want 100", got)
	}
}

func TestCompileFunctionsAndCalls(t *testing.T) {
	src := `
public out;
fn add3(a, b, c) {
  return a + b + c;
}
fn twice(x) {
  return add3(x, x, 0);
}
fn main() {
  out = twice(21) + add3(1, 2, 3) - 6;
}`
	for _, mode := range []Mode{ModeC, ModeFaCT} {
		c, m := runMain(t, src, mode)
		if got := global(t, c, m, "out", 0); got.W != 42 {
			t.Fatalf("%s: out = %v, want 42", mode, got)
		}
	}
}

func TestCompileIfElse(t *testing.T) {
	src := `
public out[2];
fn pick(v) {
  if (v > 5) {
    return 100;
  } else {
    return 200;
  }
}
fn main() {
  out[0] = pick(9);
  out[1] = pick(1);
}`
	c, m := runMain(t, src, ModeC)
	if global(t, c, m, "out", 0).W != 100 || global(t, c, m, "out", 1).W != 200 {
		t.Fatal("if/else results wrong")
	}
}

func TestSecretLabelsPropagateToData(t *testing.T) {
	src := `
secret key = 7;
public out;
fn main() {
  out = key + 1;
}`
	c, m := runMain(t, src, ModeC)
	got := global(t, c, m, "out", 0)
	if got.W != 8 {
		t.Fatalf("out = %v", got)
	}
	if !got.L.IsSecret() {
		t.Fatal("secret data must stay labeled through arithmetic")
	}
}

// TestFaCTLinearizesSecretBranch is the heart of the C-vs-FaCT
// distinction: the same secret-condition source compiles to a real
// branch under ModeC and to straight-line selects under ModeFaCT, with
// identical sequential semantics.
func TestFaCTLinearizesSecretBranch(t *testing.T) {
	src := `
secret s = 1;
public out[2];
fn main() {
  var x = 10;
  if (s == 1) {
    x = 20;
    out[1] = 5;
  } else {
    x = 30;
  }
  out[0] = x;
}`
	cC, mC := runMain(t, src, ModeC)
	cF, mF := runMain(t, src, ModeFaCT)
	if global(t, cC, mC, "out", 0).W != 20 || global(t, cF, mF, "out", 0).W != 20 {
		t.Fatal("both modes must compute 20")
	}
	if global(t, cC, mC, "out", 1).W != 5 || global(t, cF, mF, "out", 1).W != 5 {
		t.Fatal("both modes must store 5")
	}

	// ModeC must contain a branch on secret data; ModeFaCT must not
	// branch at all on this program except... it must contain selects.
	hasBr := func(c *Compiled) bool {
		for _, n := range c.Prog.Points() {
			in, _ := c.Prog.At(n)
			if in.Kind == 1 { // isa.KBr
				return true
			}
		}
		return false
	}
	if !hasBr(cC) {
		t.Fatal("ModeC must emit a branch")
	}
	if hasBr(cF) {
		t.Fatal("ModeFaCT must linearize the secret branch")
	}

	// And the observable difference: the sequential trace of ModeC
	// carries a secret-labeled jump; ModeFaCT's trace is clean.
	mC2 := core.New(cC.Prog)
	_, trC, err := core.RunSequential(mC2, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if !trC.HasSecret() {
		t.Fatal("ModeC sequential trace must leak the secret branch")
	}
	mF2 := core.New(cF.Prog)
	_, trF, err := core.RunSequential(mF2, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if trF.HasSecret() {
		t.Fatalf("ModeFaCT sequential trace must be clean, got %s", trF)
	}
}

func TestFaCTNestedSecretIf(t *testing.T) {
	src := `
secret s = 3;
public out;
fn main() {
  var x = 0;
  if (s > 1) {
    if (s > 2) {
      x = 7;
    } else {
      x = 8;
    }
  }
  out = x;
}`
	for _, mode := range []Mode{ModeC, ModeFaCT} {
		c, m := runMain(t, src, mode)
		if got := global(t, c, m, "out", 0); got.W != 7 {
			t.Fatalf("%s: out = %v, want 7", mode, got)
		}
	}
}

func TestFaCTRejectsSecretLoop(t *testing.T) {
	src := `
secret s = 3;
fn main() {
  while (s > 0) {
    s = s - 1;
  }
}`
	if _, err := Compile(src, ModeFaCT); err == nil || !strings.Contains(err.Error(), "secret loop") {
		t.Fatalf("want secret-loop rejection, got %v", err)
	}
	if _, err := Compile(src, ModeC); err != nil {
		t.Fatalf("ModeC must accept it: %v", err)
	}
}

func TestFaCTRejectsSecretIndex(t *testing.T) {
	src := `
secret s = 3;
public a[4];
public out;
fn main() {
  out = a[s];
}`
	if _, err := Compile(src, ModeFaCT); err == nil || !strings.Contains(err.Error(), "secret array index") {
		t.Fatalf("want secret-index rejection, got %v", err)
	}
	src2 := `
secret s = 3;
public a[4];
fn main() {
  a[s] = 1;
}`
	if _, err := Compile(src2, ModeFaCT); err == nil {
		t.Fatal("want secret store-index rejection")
	}
}

func TestFaCTRejectsEffectsUnderSecretBranch(t *testing.T) {
	for _, body := range []string{
		"if (s > 0) { return 1; }",
		"if (s > 0) { f(); }",
		"if (s > 0) { while (1) { s = 0; } }",
	} {
		src := "secret s = 1;\nfn f() { return 0; }\nfn main() {\n" + body + "\n}"
		if _, err := Compile(src, ModeFaCT); err == nil {
			t.Errorf("want rejection for %q", body)
		}
		if _, err := Compile(src, ModeC); err != nil {
			t.Errorf("ModeC must accept %q: %v", body, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"fn main() {",            // unterminated block
		"fn main() { var = 1; }", // missing name
		"public 3;",              // bad global
		"fn main() { x = ; }",    // missing expression
		"fn main() { @ }",        // bad rune
		"fn main() { a[1; }",     // missing bracket
		"public a[0];",           // zero-size array
		"public a[2] = {1,2,3};", // too many initializers
		"fn main() { if (1) }",   // missing block
	}
	for _, src := range cases {
		if _, err := Compile(src, ModeC); err == nil {
			t.Errorf("want parse error for %q", src)
		}
	}
}

func TestCheckErrors(t *testing.T) {
	cases := map[string]string{
		"fn f() { return 0; }":                      "no main",
		"fn main(x) { }":                            "main must take no parameters",
		"fn main() { x = 1; }":                      "undeclared variable",
		"fn main() { var x = y; }":                  "undeclared variable",
		"fn main() { var x = f(1); }":               "undeclared function",
		"fn f(a) { return a; } fn main() { f(); }":  "expects 1 arguments",
		"public a[2]; fn main() { a = 1; }":         "cannot assign whole array",
		"public x; fn main() { x[0] = 1; }":         "is not an array",
		"public x; fn main() { var y = x[0]; }":     "is not an array",
		"public x; public x; fn main() { }":         "duplicate global",
		"fn f() {} fn f() {} fn main() { }":         "duplicate function",
		"public f; fn f() {} fn main() { }":         "collides with global",
		"public a[2]; fn main() { var y = a + 1; }": "is an array",
		"public a[99999999999999]; fn main() { }":   "does not fit below the call stack",
		"public a[32512]; public b; fn main() { }":  "global b does not fit",
	}
	for src, wantSub := range cases {
		_, err := Compile(src, ModeC)
		if err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("source %q: want error containing %q, got %v", src, wantSub, err)
		}
	}
}

// TestCompileLimitsAreErrors checks the two code-generation limits
// arbitrary source can reach — the data segment below the call stack
// and the register space — come back as errors, never as a panic or a
// data image that grows with a declared size.
func TestCompileLimitsAreErrors(t *testing.T) {
	if _, err := Compile("public a[32512]; fn main() { }", ModeC); err != nil {
		t.Fatalf("globals that exactly fill the data segment must compile: %v", err)
	}
	var src strings.Builder
	src.WriteString("fn main() {")
	for i := 0; i < 0xFF00; i++ {
		fmt.Fprintf(&src, " var v%d = 0;", i)
	}
	src.WriteString(" }")
	if _, err := Compile(src.String(), ModeC); err == nil || !strings.Contains(err.Error(), "register space exhausted") {
		t.Fatalf("want a register-space error, got %v", err)
	}
}

func TestLabelFixpointThroughCalls(t *testing.T) {
	// The secret flows through g into f's return and into out.
	src := `
secret k = 5;
public out;
fn g() { return k; }
fn f() { return g() + 1; }
fn main() { out = f(); }`
	c, m := runMain(t, src, ModeC)
	got := global(t, c, m, "out", 0)
	if got.W != 6 || !got.L.IsSecret() {
		t.Fatalf("out = %v, want secret 6", got)
	}
}

// TestKocherGadgetEndToEnd compiles the classic bounds-check-bypass
// pattern from CTL source and confirms the detector flags the C build.
func TestKocherGadgetEndToEnd(t *testing.T) {
	src := `
public a[4] = {1, 2, 3, 4};
secret key[4] = {160, 161, 162, 163};
public b[16];
public x = 5;
public out;
fn main() {
  if (x < 4) {
    out = b[a[x] * 2];
  }
}`
	c, err := Compile(src, ModeC)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pitchfork.Analyze(core.New(c.Prog), pitchfork.Options{Bound: 20, StopAtFirst: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SecretFree() {
		t.Fatal("compiled Spectre v1 gadget must be flagged")
	}
}

func TestCompiledProgramIsSCTWithFence(t *testing.T) {
	src := `
public a[4] = {1, 2, 3, 4};
secret key[4] = {160, 161, 162, 163};
public b[16];
public x = 5;
public out;
fn main() {
  if (x < 4) {
    fence;
    out = b[a[x] * 2];
  }
}`
	c, err := Compile(src, ModeC)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pitchfork.Analyze(core.New(c.Prog), pitchfork.Options{Bound: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SecretFree() {
		t.Fatalf("fenced gadget must be clean: %s", rep.Summary())
	}
}

func TestRecursionUnsupportedButCallChainsWork(t *testing.T) {
	// Deep (non-recursive) call chains exercise the stack machinery.
	src := `
public out;
fn f1() { return 1; }
fn f2() { return f1() + 1; }
fn f3() { return f2() + 1; }
fn f4() { return f3() + 1; }
fn main() { out = f4(); }`
	c, m := runMain(t, src, ModeC)
	if got := global(t, c, m, "out", 0); got.W != 4 {
		t.Fatalf("out = %v, want 4", got)
	}
}

func TestModeString(t *testing.T) {
	if ModeC.String() != "c" || ModeFaCT.String() != "fact" {
		t.Fatal("mode names")
	}
}

func TestHexAndCommentLexing(t *testing.T) {
	src := `
// leading comment
public out;
fn main() {
  out = 0x10 + 2; // trailing comment
}`
	c, m := runMain(t, src, ModeC)
	if got := global(t, c, m, "out", 0); got.W != 18 {
		t.Fatalf("out = %v, want 18", got)
	}
}
