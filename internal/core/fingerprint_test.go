package core

import (
	"reflect"
	"testing"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
	"pitchfork/internal/symx"
)

func fingerprintMachine() *Machine {
	b := isa.NewBuilder(1)
	b.Br(isa.OpGt, []isa.Operand{isa.ImmW(4), isa.R(0)}, 2, 4)
	b.Load(1, isa.ImmW(0x40), isa.R(0))
	b.Store(isa.R(1), isa.ImmW(0x44))
	b.Region(0x40, mem.Pub(1), mem.Pub(2), mem.Pub(3), mem.Pub(4))
	b.Region(0x44, mem.Sec(7))
	m := New(b.MustBuild())
	m.Regs.Write(0, mem.Pub(2))
	return m
}

func TestFingerprintStableAcrossClones(t *testing.T) {
	m := fingerprintMachine()
	if m.Fingerprint() != m.Fingerprint() {
		t.Fatal("fingerprint must be deterministic")
	}
	if got := m.Clone().Fingerprint(); got != m.Fingerprint() {
		t.Fatal("a clone must fingerprint identically")
	}
	// Equal configurations reached by equal steps hash equally.
	a, b := fingerprintMachine(), fingerprintMachine()
	for _, d := range []Directive{FetchGuess(true), Fetch(), Execute(2)} {
		if _, err := a.Step(d); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Step(d); err != nil {
			t.Fatal(err)
		}
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equal configurations must fingerprint equally")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := fingerprintMachine().Fingerprint()

	m := fingerprintMachine()
	m.PC = 9
	if m.Fingerprint() == base {
		t.Fatal("PC must perturb the fingerprint")
	}

	m = fingerprintMachine()
	m.Regs.Write(0, mem.Pub(3))
	if m.Fingerprint() == base {
		t.Fatal("register contents must perturb the fingerprint")
	}

	m = fingerprintMachine()
	m.Mem.Write(0x41, mem.Pub(99))
	if m.Fingerprint() == base {
		t.Fatal("memory contents must perturb the fingerprint")
	}

	m = fingerprintMachine()
	m.Mem.Write(0x41, mem.Sec(2)) // same word, different label
	if m.Fingerprint() == base {
		t.Fatal("labels must perturb the fingerprint")
	}

	m = fingerprintMachine()
	m.Retired = 5
	if m.Fingerprint() == base {
		t.Fatal("retired count must perturb the fingerprint")
	}

	m = fingerprintMachine()
	if _, err := m.Step(FetchGuess(true)); err != nil {
		t.Fatal(err)
	}
	if m.Fingerprint() == base {
		t.Fatal("buffer contents must perturb the fingerprint")
	}
	withBranch := m.Fingerprint()
	n := fingerprintMachine()
	if _, err := n.Step(FetchGuess(false)); err != nil {
		t.Fatal(err)
	}
	if n.Fingerprint() == withBranch {
		t.Fatal("the speculative guess must perturb the fingerprint")
	}

	m = fingerprintMachine()
	m.RSB.Push(1, 7)
	if m.Fingerprint() == base {
		t.Fatal("RSB journal must perturb the fingerprint")
	}
}

// TestTransientHashCoversEveryField guards the dedup key: setting any
// one field of a transient to a non-zero value — down to the fields of
// its struct and slice members — must change hashInto, in both value
// domains. A field added later and left out of the hash fails here.
func TestTransientHashCoversEveryField(t *testing.T) {
	t.Run("concrete", func(t *testing.T) {
		checkHashCoversFields(t, mixValue, mem.Pub(7))
	})
	t.Run("symbolic", func(t *testing.T) {
		mix := func(h uint64, e symx.Expr) uint64 { return mem.Mix64(h ^ symx.Fingerprint(e)) }
		checkHashCoversFields(t, mix, symx.Expr(symx.CW(7)))
	})
}

// checkHashCoversFields walks TransientOf[V] by reflection. Each leaf
// field is set on a fresh base value and must move the hash; a slice
// is first grown to one element (its length must move the hash), and
// its element's fields are then checked on that grown base. sample is
// the non-zero value for an interface-typed field.
func checkHashCoversFields[V any](t *testing.T, mix func(uint64, V) uint64, sample V) {
	hash := func(tr TransientOf[V]) uint64 {
		f := newHasher()
		tr.hashInto(&f, mix)
		return f.h
	}
	nonZero := reflect.ValueOf(&sample).Elem()
	type path = func(*TransientOf[V]) reflect.Value
	var visit func(name string, base func() TransientOf[V], at path)
	visit = func(name string, base func() TransientOf[V], at path) {
		tr := base()
		v := at(&tr)
		if !v.CanSet() {
			t.Fatalf("%s: unexported field, cannot check", name)
		}
		switch v.Kind() {
		case reflect.Struct:
			for k := range v.NumField() {
				visit(name+"."+v.Type().Field(k).Name, base, func(p *TransientOf[V]) reflect.Value { return at(p).Field(k) })
			}
			return
		case reflect.Slice:
			grown := func() TransientOf[V] {
				g := base()
				at(&g).Set(reflect.MakeSlice(v.Type(), 1, 1))
				return g
			}
			visit(name+"[0]", grown, func(p *TransientOf[V]) reflect.Value { return at(p).Index(0) })
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(7)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(7)
		case reflect.Interface:
			v.Set(nonZero)
		default:
			t.Fatalf("%s: no non-zero value for kind %s", name, v.Kind())
		}
		if hash(tr) == hash(base()) {
			t.Errorf("%s does not change hashInto", name)
		}
	}
	visit("TransientOf", func() TransientOf[V] { return TransientOf[V]{} },
		func(p *TransientOf[V]) reflect.Value { return reflect.ValueOf(p).Elem() })
}
