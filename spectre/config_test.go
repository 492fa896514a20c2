package spectre_test

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"pitchfork/spectre"
)

// TestConfigDefaultsExplicit pins the options-surface symmetry the
// cache key depends on: New with no options, New with options that
// restate the defaults, and NewFromConfig(DefaultConfig()) must all
// resolve to the same Config — and hence the same CacheKey.
func TestConfigDefaultsExplicit(t *testing.T) {
	plain := mustNew(t)
	restated := mustNew(t,
		spectre.WithBound(spectre.DefaultBound),
		spectre.WithForwardHazards(true),
		spectre.WithMaxStates(0),
		spectre.WithMaxRetired(0),
		spectre.WithStopAtFirst(false),
		spectre.WithSymbolic(false),
		spectre.WithDedup(0),
		spectre.WithStaticPass(false),
		spectre.WithRepairStrategy(spectre.StrategyAuto),
	)
	fromCfg, err := spectre.NewFromConfig(spectre.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := plain.Config()
	for name, an := range map[string]*spectre.Analyzer{"restated": restated, "fromConfig": fromCfg} {
		if got := an.Config(); got != want {
			t.Errorf("%s: config diverged from the default construction:\n got %+v\nwant %+v", name, got, want)
		}
		if got, w := an.Config().CacheKey(), want.CacheKey(); got != w {
			t.Errorf("%s: cache key diverged: %s vs %s", name, got, w)
		}
	}
}

// TestConfigSnapshotResolved checks Analyzer.Config returns the
// resolved snapshot: every option lands in its field, and the two
// pick-for-me zeroes (Workers, RepairStrategy) come back resolved.
func TestConfigSnapshotResolved(t *testing.T) {
	an := mustNew(t,
		spectre.WithBound(250),
		spectre.WithForwardHazards(false),
		spectre.WithMaxStates(1000),
		spectre.WithMaxRetired(500),
		spectre.WithStopAtFirst(true),
		spectre.WithSymbolic(true),
		spectre.WithWorkers(3),
		spectre.WithDedup(64),
		spectre.WithStaticPass(true),
		spectre.WithRepairStrategy(spectre.StrategyFence),
	)
	want := spectre.Config{
		Bound:          250,
		ForwardHazards: false,
		MaxStates:      1000,
		MaxRetired:     500,
		StopAtFirst:    true,
		Symbolic:       true,
		Workers:        3,
		DedupEntries:   64,
		StaticPass:     true,
		RepairStrategy: spectre.StrategyFence,
	}
	if got := an.Config(); got != want {
		t.Errorf("snapshot drifted:\n got %+v\nwant %+v", got, want)
	}

	zeroWorkers := spectre.DefaultConfig()
	zeroWorkers.Workers = 0
	zeroWorkers.RepairStrategy = ""
	resolved, err := spectre.NewFromConfig(zeroWorkers)
	if err != nil {
		t.Fatal(err)
	}
	if got := resolved.Config().Workers; got != runtime.NumCPU() {
		t.Errorf("Workers 0 resolved to %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := resolved.Config().RepairStrategy; got != spectre.StrategyAuto {
		t.Errorf("empty strategy resolved to %q, want auto", got)
	}
}

// TestConfigJSONRoundTrip: a Config survives JSON and rebuilds an
// equivalent analyzer — the property the service's request path is
// built on. Partial documents overlay DefaultConfig, the documented
// deserialization recipe.
func TestConfigJSONRoundTrip(t *testing.T) {
	orig := mustNew(t, spectre.WithBound(250), spectre.WithForwardHazards(false), spectre.WithStopAtFirst(true)).Config()
	raw, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	back := spectre.DefaultConfig()
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != orig {
		t.Fatalf("round trip drifted:\n got %+v\nwant %+v", back, orig)
	}

	partial := spectre.DefaultConfig()
	if err := json.Unmarshal([]byte(`{"bound": 99}`), &partial); err != nil {
		t.Fatal(err)
	}
	want := spectre.DefaultConfig()
	want.Bound = 99
	if partial != want {
		t.Fatalf("partial overlay drifted:\n got %+v\nwant %+v", partial, want)
	}

	// A config that came over the wire must run: same report as the
	// option-built analyzer.
	an1 := mustNew(t, spectre.WithBound(20))
	an2, err := spectre.NewFromConfig(an1.Config())
	if err != nil {
		t.Fatal(err)
	}
	prog := v1Program(9)
	rep1, err := an1.Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := an2.Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(rep1)
	b2, _ := json.Marshal(rep2)
	if string(b1) != string(b2) {
		t.Errorf("config-rebuilt analyzer diverged:\n got %s\nwant %s", b2, b1)
	}
}

// TestNewFromConfigRejects mirrors the option validations.
func TestNewFromConfigRejects(t *testing.T) {
	for name, mutate := range map[string]func(*spectre.Config){
		"zero bound":       func(c *spectre.Config) { c.Bound = 0 },
		"negative states":  func(c *spectre.Config) { c.MaxStates = -1 },
		"negative retired": func(c *spectre.Config) { c.MaxRetired = -1 },
		"negative workers": func(c *spectre.Config) { c.Workers = -1 },
		"too many workers": func(c *spectre.Config) { c.Workers = spectre.MaxWorkers + 1 },
		"negative dedup":   func(c *spectre.Config) { c.DedupEntries = -1 },
		"bad strategy":     func(c *spectre.Config) { c.RepairStrategy = "nop" },
	} {
		c := spectre.DefaultConfig()
		mutate(&c)
		if _, err := spectre.NewFromConfig(c); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCacheKeySeparates: configurations that can differ in any report
// byte must not alias.
func TestCacheKeySeparates(t *testing.T) {
	base := spectre.DefaultConfig()
	seen := map[string]string{base.CacheKey(): "base"}
	for name, mutate := range map[string]func(*spectre.Config){
		"bound":      func(c *spectre.Config) { c.Bound = 21 },
		"fwd":        func(c *spectre.Config) { c.ForwardHazards = false },
		"maxStates":  func(c *spectre.Config) { c.MaxStates = 10 },
		"maxRetired": func(c *spectre.Config) { c.MaxRetired = 10 },
		"stopFirst":  func(c *spectre.Config) { c.StopAtFirst = true },
		"symbolic":   func(c *spectre.Config) { c.Symbolic = true },
		"workers":    func(c *spectre.Config) { c.Workers = 2 },
		"dedup":      func(c *spectre.Config) { c.DedupEntries = 16 },
		"static":     func(c *spectre.Config) { c.StaticPass = true },
		"strategy":   func(c *spectre.Config) { c.RepairStrategy = spectre.StrategyMask },
	} {
		c := base
		mutate(&c)
		key := c.CacheKey()
		if prev, dup := seen[key]; dup {
			t.Errorf("cache key aliases %q and %q", name, prev)
		}
		seen[key] = name
	}
}
