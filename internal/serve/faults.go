package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
)

// Fault injection: a small registry of deliberately failable points
// threaded through the serving stack, so the chaos suite (and the CI
// chaos job) can prove the daemon degrades instead of crashing. Every
// hook is a no-op unless a fault plan is installed, and the only ways
// to install one are unexported: tests call parseFaults directly, the
// daemon opts in through the SPECTRED_FAULTS environment variable.
// There is no flag and no API — production traffic cannot switch this
// on by accident.
//
// The plan is deterministic and seedable: each site keeps its own call
// sequence number, and whether call n at site s fires is a pure
// function of (seed, s, n) via a splitmix64 hash. Replaying the same
// call sequence against the same spec reproduces the same fault
// pattern, which is what makes chaos failures debuggable.
const faultsEnv = "SPECTRED_FAULTS"

// faultSite names one instrumented failure point.
type faultSite string

const (
	// siteDiskRead fails a persistent-tier read with an I/O error.
	siteDiskRead faultSite = "diskread"
	// siteDiskWrite fails a persistent-tier write with an I/O error.
	siteDiskWrite faultSite = "diskwrite"
	// siteCacheLookup makes a whole cache lookup miss (both tiers
	// unavailable), forcing a fresh analysis.
	siteCacheLookup faultSite = "cachelookup"
	// sitePoolAdmit refuses an analysis admission as if the queue were
	// full, exercising the 429/Retry-After backpressure path. The spec
	// key stays "pooladmit", the name existing fault plans use.
	sitePoolAdmit faultSite = "pooladmit"
	// siteEngine panics inside an admitted analysis, exercising the
	// panic-isolation boundary.
	siteEngine faultSite = "engine"
)

// errInjectedIO is the error injected disk faults surface; it flows
// through the same degrade-to-miss handling as a real I/O failure.
var errInjectedIO = errors.New("serve: injected disk fault")

// errInjectedPanic is the value injected engine faults panic with. The
// recovery path recognizes it and skips the stack-trace log line real
// panics get, so chaos runs don't bury real failures in noise.
var errInjectedPanic = errors.New("serve: injected engine panic")

type siteState struct {
	rate float64
	salt uint64
	seq  atomic.Uint64
}

// faults is an installed fault plan. The zero of *faults (nil) is the
// production state: every hook answers "don't fire" with no atomics
// touched beyond a nil check.
type faults struct {
	seed     uint64
	sites    map[faultSite]*siteState
	injected atomic.Int64
	off      atomic.Bool
}

// faultsFromEnv builds the plan from SPECTRED_FAULTS, returning nil
// when the variable is unset.
func faultsFromEnv() (*faults, error) {
	return parseFaults(os.Getenv(faultsEnv))
}

// parseFaults parses a fault spec of the form
//
//	seed=7,engine=0.05,diskread=0.10,diskwrite=0.10,cachelookup=0.10,pooladmit=0.05
//
// where each site maps to a per-call fire probability in [0,1]. An
// empty spec returns (nil, nil); an unknown site or malformed rate is
// an error so CI typos surface at startup instead of silently running
// a fault-free "chaos" job.
func parseFaults(spec string) (*faults, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	known := map[faultSite]bool{
		siteDiskRead: true, siteDiskWrite: true, siteCacheLookup: true,
		sitePoolAdmit: true, siteEngine: true,
	}
	f := &faults{sites: make(map[faultSite]*siteState)}
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("serve: fault spec: %q is not key=value", kv)
		}
		if key == "seed" {
			seed, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("serve: fault spec: seed %q: %v", val, err)
			}
			f.seed = seed
			continue
		}
		site := faultSite(key)
		if !known[site] {
			return nil, fmt.Errorf("serve: fault spec: unknown site %q (known: diskread, diskwrite, cachelookup, pooladmit, engine)", key)
		}
		rate, err := strconv.ParseFloat(val, 64)
		if err != nil || rate < 0 || rate > 1 {
			return nil, fmt.Errorf("serve: fault spec: rate %q for %s must be a float in [0,1]", val, key)
		}
		h := fnv.New64a()
		h.Write([]byte(key)) //nolint:errcheck // never fails
		f.sites[site] = &siteState{rate: rate, salt: h.Sum64()}
	}
	return f, nil
}

// fire reports whether the fault at site should trigger for this call,
// advancing the site's deterministic sequence. Safe on a nil receiver.
func (f *faults) fire(site faultSite) bool {
	if f == nil || f.off.Load() {
		return false
	}
	s := f.sites[site]
	if s == nil || s.rate <= 0 {
		return false
	}
	n := s.seq.Add(1)
	h := splitmix64(f.seed ^ s.salt ^ n)
	if float64(h>>11)/(1<<53) >= s.rate {
		return false
	}
	f.injected.Add(1)
	return true
}

// disable turns every hook off in place — how the chaos suite ends the
// storm and asserts convergence back to a healthy service without
// racing a plan swap against in-flight requests.
func (f *faults) disable() {
	if f != nil {
		f.off.Store(true)
	}
}

// injectedCount returns how many faults have fired so far.
func (f *faults) injectedCount() int64 {
	if f == nil {
		return 0
	}
	return f.injected.Load()
}

// splitmix64 is the finalizer of the splitmix64 PRNG — a cheap,
// high-quality 64-bit mixer, the same construction the symbolic
// solver's probe phase uses for reproducible randomness.
func splitmix64(x uint64) uint64 {
	z := x + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
