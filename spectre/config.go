package spectre

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Config is the analyzer's full configuration as an explicit,
// JSON-serializable value: every knob the functional options set, with
// no hidden state. It exists so analysis requests can travel over a
// wire — the serving layer (cmd/spectred) accepts a Config in the
// request body, and CacheKey canonicalizes it into the verdict-cache
// key — and so a configuration is never ambiguous: after New resolves
// its options, every field holds its effective value (defaults
// included), and New() and New(WithBound(DefaultBound)) produce
// identical Configs, hence identical cache keys.
//
// The functional options (WithBound, WithSymbolic, …) are a thin layer
// over this struct; NewFromConfig constructs an Analyzer from a Config
// directly. The zero Config is not runnable (Bound must be positive) —
// start from DefaultConfig and overlay, which is also how the serving
// layer treats partial JSON documents.
type Config struct {
	// Bound is the speculation bound: the maximum reorder-buffer size,
	// hence the maximum speculation depth. Must be positive.
	Bound int `json:"bound"`
	// ForwardHazards enables exploration of store-forwarding outcomes
	// (Spectre v4 and the paper's "f" findings).
	ForwardHazards bool `json:"forwardHazards"`
	// MaxStates bounds the number of explored machine states; 0 is the
	// exploration default of 200 000 states.
	MaxStates int `json:"maxStates"`
	// MaxRetired bounds retired instructions per exploration path; 0 is
	// the exploration default.
	MaxRetired int `json:"maxRetired"`
	// StopAtFirst stops each run at the first finding.
	StopAtFirst bool `json:"stopAtFirst"`
	// Symbolic switches to symbolic mode (see WithSymbolic).
	Symbolic bool `json:"symbolic"`
	// StaticPass runs the speculative-taint pre-analysis before
	// exploration (see WithStaticPass).
	StaticPass bool `json:"staticPass"`
	// RepairStrategy selects the mitigation Repair synthesizes (one of
	// the Strategy* constants); "" resolves to StrategyAuto.
	RepairStrategy string `json:"repairStrategy"`
}

// DefaultConfig returns the configuration New uses with no options:
// concrete-mode analysis at DefaultBound with forwarding-hazard
// detection enabled, auto repair strategy. Every
// default is explicit — the returned value round-trips through JSON
// and CacheKey without further resolution.
func DefaultConfig() Config {
	return Config{
		Bound:          DefaultBound,
		ForwardHazards: true,
		RepairStrategy: StrategyAuto,
	}
}

// normalize resolves the field whose zero value means "pick for me":
// RepairStrategy "" → auto. New and NewFromConfig both apply it, so a
// Config built by hand and one built by options cannot diverge.
func (c *Config) normalize() {
	if c.RepairStrategy == "" {
		c.RepairStrategy = StrategyAuto
	}
}

// validate rejects unrunnable configurations. It is the one check
// behind both New and NewFromConfig; the functional options only set
// fields.
func (c Config) validate() error {
	if c.Bound < 1 {
		return fmt.Errorf("spectre: speculation bound must be positive, got %d", c.Bound)
	}
	if c.MaxStates < 0 {
		return fmt.Errorf("spectre: max states must be non-negative, got %d", c.MaxStates)
	}
	if c.MaxRetired < 0 {
		return fmt.Errorf("spectre: max retired must be non-negative, got %d", c.MaxRetired)
	}
	switch c.RepairStrategy {
	case StrategyAuto, StrategyFence, StrategyMask, StrategyRet:
	default:
		return fmt.Errorf("spectre: unknown repair strategy %q (want auto, fence, mask or ret)", c.RepairStrategy)
	}
	return nil
}

// CacheKey returns the canonical options key: a hex digest over every
// configuration field, in a fixed rendering that does not depend on
// struct layout or JSON encoding details. Two Configs have equal cache
// keys iff they are equal after normalization — and equal Configs
// produce byte-identical reports on the same program, which is the
// contract the fingerprint-keyed verdict cache (internal/serve) relies
// on. Every field participates, including ones like RepairStrategy
// that do not change the finding set; a key must never alias two
// configurations whose reports can differ in any byte.
//
// The digest is stability-pinned (spectre/stability_test.go): it may
// only change with a deliberate bump of the version tag below, never
// silently. v2 dropped the solver seed: the model search became
// deterministic, so symbolic witnesses changed and v1 entries must not
// be served. v3 dropped Workers: reports lost their workers field, so
// v2 entries must not be served. v4 dropped DedupEntries: the visited
// set is always on and the strategy gained the window-sliding arm, so
// states, paths and verdicts changed and v3 entries must not be served.
func (c Config) CacheKey() string {
	c.normalize()
	canonical := fmt.Sprintf(
		"spectre-config-v4|bound=%d|fwd=%t|maxStates=%d|maxRetired=%d|stopAtFirst=%t|symbolic=%t|static=%t|strategy=%s",
		c.Bound, c.ForwardHazards, c.MaxStates, c.MaxRetired, c.StopAtFirst,
		c.Symbolic, c.StaticPass, c.RepairStrategy)
	sum := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(sum[:])
}

// NewFromConfig constructs an Analyzer from an explicit Config — the
// deserialized-request path the serving layer uses, equivalent to New
// with the corresponding options. The Config is normalized
// (RepairStrategy "" → auto) and validated; the analyzer
// keeps a copy, so later mutations of c do not affect it.
func NewFromConfig(c Config) (*Analyzer, error) {
	c.normalize()
	if err := c.validate(); err != nil {
		return nil, err
	}
	return &Analyzer{cfg: c}, nil
}

// Config returns the analyzer's resolved configuration snapshot: every
// field holds its effective value, with defaults and option effects
// applied. Marshaling it and feeding it back through NewFromConfig
// reproduces the analyzer exactly; its CacheKey is the canonical
// options key under which the serving layer caches this analyzer's
// verdicts.
func (a *Analyzer) Config() Config { return a.cfg }
