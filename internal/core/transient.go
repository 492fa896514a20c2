// Package core implements the paper's contribution: the operational
// semantics of an abstract three-stage (fetch / execute / retire)
// machine with out-of-order and speculative execution (§3), the
// attacker directive / observation model, and the speculative
// constant-time (SCT) security definition (Def. 3.1).
//
// Microarchitectural predictors are not modeled; their choices are the
// attacker's, delivered as directives (fetch: true, execute i : fwd j,
// …). Externally visible effects — memory reads/writes, forwards,
// control flow, rollbacks — are emitted as observations. Security is a
// property of observation traces over low-equivalent configurations.
package core

import (
	"fmt"
	"strings"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

// NoDep marks a resolved load whose value came from memory rather than
// from a forwarding store: the paper's ⊥ annotation in (r = vℓ{⊥,a}).
// The hazard rules compare dependencies with "⊥ < n for any index n",
// which the negative sentinel gives us for free.
const NoDep = -1

// TKind discriminates transient instruction forms (Table 1, "Transient
// form(s)" column).
type TKind uint8

const (
	TOp    TKind = iota // (r = op(op, r⃗v)) — unresolved operation
	TValue              // (r = vℓ) or (r = vℓ{j,a})n — resolved value / resolved load
	TBr                 // br(op, r⃗v, n0, (ntrue, nfalse)) — unresolved conditional
	TJump               // jump n0 — resolved conditional / indirect jump
	TLoad               // (r = load(r⃗v))n or (r = load(r⃗v, (vℓ, j)))n
	TStore              // store(rv, r⃗v) with independently resolvable value and address
	TJmpi               // jmpi(r⃗v, n0) — unresolved indirect jump
	TCall               // call — marker for the call expansion
	TRet                // ret — marker for the ret expansion
	TFence              // fence
)

// TransientOf is a transient instruction over the value domain V: the
// unit the reorder buffer holds. Table 1 defines one transient syntax
// over values; the concrete machine instantiates it at labeled words
// (Transient) and the symbolic domain at expressions. A single struct
// covers every form; Kind plus the resolution flags determine which
// fields are meaningful.
type TransientOf[V any] struct {
	Kind TKind

	Dst  isa.Reg       // TOp, TValue, TLoad: destination register r
	Op   isa.Opcode    // TOp, TBr: operator
	Args []isa.Operand // TOp/TBr operands; TLoad/TStore/TJmpi address operands r⃗v

	// TValue fields. A plain resolved value has FromLoad == false. A
	// resolved load carries the paper's {dep, addr} annotation and the
	// program point of its physical load.
	Val      V
	FromLoad bool
	Dep      int      // forwarding store's buffer index, or NoDep (⊥)
	DataAddr mem.Word // annotated address a

	// PP is the program point the instruction was fetched at; the
	// explorer uses it to attribute observations to their source
	// instruction. For TValue it survives only on resolved loads (the
	// paper's n annotation); other resolved forms drop it.
	PP isa.Addr

	// TBr / TJmpi speculation state.
	Guess isa.Addr // n0, the speculatively followed program point
	True  isa.Addr // TBr: ntrue
	False isa.Addr // TBr: nfalse

	Target isa.Addr // TJump: resolved target

	// TStore resolution state: value and address resolve independently
	// (execute i : value, execute i : addr), in either order. The
	// address is a labeled word in every domain: the symbolic domain
	// concretizes it before it resolves.
	Src       isa.Operand // unresolved data operand rv
	ValKnown  bool
	SVal      V // resolved data vℓ
	AddrKnown bool
	SAddr     mem.Value // resolved address aℓa (word + joined label)

	// TLoad aliasing-prediction state (§3.5): a partially resolved load
	// (r = load(r⃗v, (vℓ, j)))n speculatively carries the value of the
	// store at index PredFrom before the addresses are known.
	PredFwd  bool
	PredVal  V
	PredFrom int
}

// Transient is the concrete machine's transient instruction, over
// labeled words.
type Transient = TransientOf[mem.Value]

// AssignsReg reports whether the transient instruction targets register
// r — the candidates the register resolve function (Fig. 3) scans for.
func (t *TransientOf[V]) AssignsReg(r isa.Reg) bool {
	switch t.Kind {
	case TOp, TValue, TLoad:
		return t.Dst == r
	}
	return false
}

// IsFence reports whether the instruction is a fence, for the reorder
// buffer's lowest-fence index. It has a value receiver so that
// TransientOf itself satisfies BufferEntry.
func (t TransientOf[V]) IsFence() bool { return t.Kind == TFence }

// Resolved reports whether the instruction needs no further execute
// steps before it can retire.
func (t *TransientOf[V]) Resolved() bool {
	switch t.Kind {
	case TValue, TJump, TFence, TCall, TRet:
		return true
	case TStore:
		return t.ValKnown && t.AddrKnown
	default:
		return false
	}
}

// IsResolvedStoreTo reports whether the instruction is a store whose
// address has resolved to a — the buf(j) = store(_, a) pattern of the
// load rules.
func (t *TransientOf[V]) IsResolvedStoreTo(a mem.Word) bool {
	return t.Kind == TStore && t.AddrKnown && t.SAddr.W == a
}

// String renders the transient instruction in the paper's notation,
// e.g. "(rb = load([64, ra]))", "store(12, 67pub)", "jump 9".
func (t *TransientOf[V]) String() string {
	switch t.Kind {
	case TOp:
		return fmt.Sprintf("(%s = op(%s, %s))", isa.RegName(t.Dst), t.Op, opList(t.Args))
	case TValue:
		if t.FromLoad {
			dep := "⊥"
			if t.Dep != NoDep {
				dep = fmt.Sprintf("%d", t.Dep)
			}
			return fmt.Sprintf("(%s = %v{%s, %#x})", isa.RegName(t.Dst), t.Val, dep, t.DataAddr)
		}
		return fmt.Sprintf("(%s = %v)", isa.RegName(t.Dst), t.Val)
	case TBr:
		return fmt.Sprintf("br(%s, %s, %d, (%d, %d))", t.Op, opList(t.Args), t.Guess, t.True, t.False)
	case TJump:
		return fmt.Sprintf("jump %d", t.Target)
	case TLoad:
		if t.PredFwd {
			return fmt.Sprintf("(%s = load(%s, (%v, %d)))", isa.RegName(t.Dst), opList(t.Args), t.PredVal, t.PredFrom)
		}
		return fmt.Sprintf("(%s = load(%s))", isa.RegName(t.Dst), opList(t.Args))
	case TStore:
		src := t.Src.String()
		if t.ValKnown {
			src = fmt.Sprint(t.SVal)
		}
		if t.AddrKnown {
			return fmt.Sprintf("store(%s, %s)", src, t.SAddr)
		}
		return fmt.Sprintf("store(%s, %s)", src, opList(t.Args))
	case TJmpi:
		return fmt.Sprintf("jmpi(%s, %d)", opList(t.Args), t.Guess)
	case TCall:
		return "call"
	case TRet:
		return "ret"
	case TFence:
		return "fence"
	}
	return "<invalid transient>"
}

func opList(args []isa.Operand) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// transientOf translates a physical instruction to its unresolved
// transient form (the transient(·) function of simple-fetch). Operand
// slices are shared with the static program: operands are immutable
// after assembly and transients never rewrite Args, so no copy is
// needed (branch and jmpi fetches already share them).
func transientOf[V any](in *isa.Instr) TransientOf[V] {
	switch in.Kind {
	case isa.KOp:
		return TransientOf[V]{Kind: TOp, Dst: in.Dst, Op: in.Op, Args: in.Args}
	case isa.KLoad:
		return TransientOf[V]{Kind: TLoad, Dst: in.Dst, Args: in.Args}
	case isa.KStore:
		return TransientOf[V]{Kind: TStore, Src: in.Src, Args: in.Args}
	case isa.KFence:
		return TransientOf[V]{Kind: TFence}
	}
	panic(fmt.Sprintf("core: transientOf(%v): not a simple-fetch instruction", in.Kind))
}
