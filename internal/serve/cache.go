// Package serve is the analysis-as-a-service layer behind cmd/spectred:
// a verdict cache keyed by (program fingerprint, canonical options
// key), request coalescing for in-flight duplicates, a fixed number of
// worker slots with a bounded queue and backpressure, and the
// versioned HTTP API that serves the spectre façade to CI-shaped
// traffic. Each coalesced miss runs on its flight's own goroutine,
// which takes a worker slot for the analysis, so an idle server holds
// no goroutines.
//
// The cache observation is Serberus's: Spectre checking as a pipeline
// stage sees highly repetitive traffic — the same program at the same
// configuration, submitted on every CI run — so verdicts keyed by
// content hash make the common case O(1). A hit costs a digest of the
// request body, one map lookup and one splice: the server memoizes
// which cache key each body digest resolves to, so a repeated body is
// never decoded, compiled or fingerprinted again, and each stored
// verdict is checked once, when it enters the memory tier, for the spot
// its cacheHit (or coalesced) flag is spliced in where encoding/json
// would put it. No hit re-encodes or rescans a report. The two cache
// tiers split the latency/durability trade: an in-memory tier answers
// the steady state, an on-disk tier survives restarts (a redeployed
// daemon starts warm). Verdicts cost very different amounts to
// recompute — a gadget takes microseconds, a crypto build at a deep
// bound seconds — so the memory tier evicts by cost as well as recency
// (GreedyDual, Cao & Irani 1997): it keeps the verdicts whose misses
// would cost the most engine time. Coalescing covers the remaining
// repetitive case the cache cannot: N identical submissions in flight
// at once share one analysis.
//
// The layer is built to lose availability to nothing: every failure
// class has a downgrade, not an error. A corrupt or truncated disk
// entry (every entry is sha256-framed and verified on read) is
// quarantined and treated as a miss; a disk I/O failure degrades to
// miss-and-analyze; repeated disk failures disable the persistent tier
// entirely (the daemon reports "degraded" but keeps serving from
// memory + analysis); a panicking analysis is recovered at the
// analysis boundary and surfaced as a structured 500 without taking
// the daemon or any other request down. The disk tier is bounded by a
// byte budget with LRU eviction, so it can run unattended
// indefinitely.
package serve

import (
	"bytes"
	"container/heap"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tier identifies where a cache read was answered.
type Tier int

const (
	// TierNone is a miss.
	TierNone Tier = iota
	// TierMem is a memory-tier hit.
	TierMem
	// TierDisk is a persistent-tier hit (promoted to memory on read).
	TierDisk
)

// diskMagic versions the on-disk entry framing. Every persisted entry
// is "diskMagic <sha256-hex> <payload-len>\n<payload>"; anything that
// fails to parse or verify is quarantined, never served.
const diskMagic = "spectrecache1"

// quarantineSuffix is appended to the file name of a corrupt entry.
// Quarantined files no longer end in the entry suffix, so Keys() and
// the startup scan skip them; they are kept (not deleted) so an
// operator can inspect what went wrong.
const quarantineSuffix = ".quarantined"

// diskFailureLimit is how many consecutive disk I/O failures disable
// the persistent tier for the rest of the process. Corruption does not
// count (a quarantined entry is handled, not failing); only read/write
// errors do, and any success resets the streak — so the tier dies only
// when the disk is persistently unhealthy, at which point continuing
// to hammer it buys nothing and the daemon honestly reports degraded.
const diskFailureLimit = 8

// Cache is the two-tier verdict cache. Keys are filename-safe strings
// (the server derives them from hex digests); values are response
// envelopes, each held with its provenance anchor (see verdict). The
// memory tier is bounded by an entry count and evicts by GreedyDual:
// each entry carries the wall time it took to produce (its cost) and a
// priority H = L + cost, set when it is stored and on every hit; the
// victim is the entry with the smallest H, the least recently used
// among equals, and L then rises to the victim's H. With equal costs
// this is exactly LRU; an expensive entry outlives cheaper ones, but
// not forever, since every eviction raises L towards its H. The disk
// tier — enabled by a non-empty directory — persists entries with a
// sha256 checksum frame, verified on every read, under an optional
// byte budget enforced by LRU eviction. All methods are safe for
// concurrent use.
//
// The disk tier is best-effort by construction: a failed write, an
// unreadable file, or a corrupt entry degrades to a miss (the analysis
// simply reruns) rather than failing the request. Corrupt entries are
// quarantined (renamed aside) so they are never served and never
// retried; I/O failures are counted, and diskFailureLimit consecutive
// ones disable the tier for the life of the process.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	victims memHeap // root = next victim
	// inflation is GreedyDual's L: the priority of the last victim.
	inflation time.Duration
	// clock numbers uses, so ties in priority go to the least recent.
	clock uint64
	cap   int
	dir   string

	// flt is the installed fault plan (nil in production). The cache
	// carries it so disk read/write and lookup hooks fire inside the
	// code paths they fault.
	flt *faults

	// Disk-tier index: an LRU over persisted entries with their framed
	// sizes, what the byte-budget GC evicts from. Guarded by dmu; file
	// I/O happens outside the lock, so a reader can race an eviction —
	// that window resolves to either a served (correct) value or a
	// miss, never a wrong value, and the test suite pins it.
	dmu     sync.Mutex
	dindex  map[string]*list.Element
	dlru    *list.List // front = most recently used
	dbytes  int64
	dbudget int64

	tmpSeq atomic.Uint64

	disabled   atomic.Bool
	consecFail atomic.Int64

	memEvictions atomic.Int64
	diskErrs     atomic.Int64
	quarantined  atomic.Int64
	gcEvictions  atomic.Int64
}

// cacheEntry is one memory-tier verdict with its GreedyDual state: the
// cost of producing it, its priority h = L + cost as of its last use,
// the clock reading of that use, and its index in the victim heap.
type cacheEntry struct {
	key  string
	v    verdict
	cost time.Duration
	h    time.Duration
	used uint64
	at   int
}

// memHeap orders the memory tier by (h, used), smallest first.
type memHeap []*cacheEntry

func (q memHeap) Len() int { return len(q) }

func (q memHeap) Less(i, j int) bool {
	if q[i].h != q[j].h {
		return q[i].h < q[j].h
	}
	return q[i].used < q[j].used
}

func (q memHeap) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].at, q[j].at = i, j
}

func (q *memHeap) Push(x any) {
	e := x.(*cacheEntry)
	e.at = len(*q)
	*q = append(*q, e)
}

func (q *memHeap) Pop() any {
	old := *q
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	return e
}

// verdict is a stored response envelope together with its provenance
// anchor: the offset at which a cache hit or a coalesced waiter splices
// its flag, or -1 when the envelope is corrupt and must not be served
// (see provenanceAnchor). The anchor is found, and the stamped form
// validated, once per entry as it enters the memory tier — in Put and
// on disk-tier promotion — so no read scans the envelope again.
type verdict struct {
	raw    []byte
	anchor int
}

type diskEntry struct {
	key  string
	size int64
}

// CacheStats snapshots the cache's health counters for /statsz.
type CacheStats struct {
	// MemEvictions counts entries the memory tier evicted to make room.
	MemEvictions int64
	// DiskErrors counts persistent-tier I/O failures absorbed so far
	// (degraded to misses).
	DiskErrors int64
	// Quarantined counts corrupt or truncated entries renamed aside.
	Quarantined int64
	// GCEvictions counts entries removed by the byte-budget GC.
	GCEvictions int64
	// DiskBytes is the current persistent-tier footprint (framed bytes).
	DiskBytes int64
	// DiskDegraded reports whether repeated failures disabled the
	// persistent tier for the rest of the process.
	DiskDegraded bool
}

// NewCache builds a cache holding at most memEntries values in memory
// (minimum 1), evicted by cost and recency (see Cache). A non-empty dir
// enables the persistent tier; the directory is created if needed,
// existing entries are scanned (sized, ordered by modification time)
// so the byte budget holds from startup, and diskBudget > 0 bounds the
// tier's total framed bytes with LRU eviction (0 means unbounded).
func NewCache(memEntries int, dir string, diskBudget int64) (*Cache, error) {
	if memEntries < 1 {
		memEntries = 1
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: cache dir: %w", err)
		}
	}
	c := &Cache{
		entries: make(map[string]*cacheEntry),
		cap:     memEntries,
		dir:     dir,
		dindex:  make(map[string]*list.Element),
		dlru:    list.New(),
		dbudget: diskBudget,
	}
	if dir != "" {
		c.scanDisk()
		c.gc()
	}
	return c, nil
}

// scanDisk rebuilds the disk-tier index from the directory: size every
// entry, order by modification time so the LRU starts with a sensible
// recency order (checksums are verified lazily, on first read). Files
// that aren't entries — quarantined, temporary, foreign — are ignored.
func (c *Cache) scanDisk() {
	names, err := os.ReadDir(c.dir)
	if err != nil {
		c.diskFailure()
		return
	}
	type scanned struct {
		key   string
		size  int64
		mtime int64
	}
	var found []scanned
	for _, n := range names {
		key, ok := strings.CutSuffix(n.Name(), ".json")
		if !ok {
			continue
		}
		info, err := n.Info()
		if err != nil {
			continue
		}
		found = append(found, scanned{key: key, size: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime < found[j].mtime })
	c.dmu.Lock()
	defer c.dmu.Unlock()
	for _, f := range found { // ascending mtime: newest ends up at the front
		c.dindex[f.key] = c.dlru.PushFront(&diskEntry{key: f.key, size: f.size})
		c.dbytes += f.size
	}
}

// Get returns the cached verdict for key and the tier that answered. A
// disk-tier hit is checksum-verified, given its provenance anchor and
// promoted into the memory tier, at the cost of that read, check and
// anchor search; an entry that fails the checksum is quarantined and
// answered as a miss.
func (c *Cache) Get(key string) (verdict, Tier) {
	if c.flt.fire(siteCacheLookup) {
		return verdict{}, TierNone
	}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.touchLocked(e)
		v := e.v
		c.mu.Unlock()
		return v, TierMem
	}
	c.mu.Unlock()
	if c.dir == "" || c.disabled.Load() {
		return verdict{}, TierNone
	}
	start := time.Now()
	path := c.diskPath(key)
	var data []byte
	var err error
	if c.flt.fire(siteDiskRead) {
		err = errInjectedIO
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		if os.IsNotExist(err) {
			// Evicted or never written: an ordinary miss, and any stale
			// index entry goes with it.
			c.dropDiskIndex(key)
		} else {
			c.diskFailure()
		}
		return verdict{}, TierNone
	}
	val, ok := unframe(data)
	if !ok {
		c.quarantine(key, path)
		return verdict{}, TierNone
	}
	c.diskOK()
	v := verdict{raw: val, anchor: provenanceAnchor(key, val)}
	cost := time.Since(start)
	c.mu.Lock()
	c.insertLocked(key, v, cost)
	c.mu.Unlock()
	c.touchDisk(key, int64(len(data)))
	return v, TierDisk
}

// Put stores the value in both tiers, runs the byte-budget GC, and
// returns the value as the memory tier holds it, with its provenance
// anchor. cost is what producing val took: what missing it would cost
// again, which weighs the entry against eviction.
func (c *Cache) Put(key string, val []byte, cost time.Duration) verdict {
	v := verdict{raw: val, anchor: provenanceAnchor(key, val)}
	c.mu.Lock()
	c.insertLocked(key, v, cost)
	c.mu.Unlock()
	if c.dir == "" || c.disabled.Load() {
		return v
	}
	data := frame(val)
	var err error
	if c.flt.fire(siteDiskWrite) {
		err = errInjectedIO
	} else {
		// Atomic publication through a unique temp name: never let a
		// reader (or a restarted daemon) observe a torn entry, and never
		// let two concurrent writers of the same key tear each other's
		// temp file.
		tmp := fmt.Sprintf("%s.tmp%d", c.diskPath(key), c.tmpSeq.Add(1))
		err = os.WriteFile(tmp, data, 0o644)
		if err == nil {
			err = os.Rename(tmp, c.diskPath(key))
		} else {
			os.Remove(tmp)
		}
	}
	if err != nil {
		c.diskFailure()
		return v
	}
	c.diskOK()
	c.touchDisk(key, int64(len(data)))
	c.gc()
	return v
}

// insertLocked stores v under key at the given cost. A full tier
// evicts before the new entry goes in, so the newest entry is never
// its own victim.
func (c *Cache) insertLocked(key string, v verdict, cost time.Duration) {
	if e, ok := c.entries[key]; ok {
		e.v, e.cost = v, cost
		c.touchLocked(e)
		return
	}
	if len(c.victims) >= c.cap {
		victim := heap.Pop(&c.victims).(*cacheEntry)
		delete(c.entries, victim.key)
		c.inflation = victim.h
		c.memEvictions.Add(1)
	}
	e := &cacheEntry{key: key, v: v, cost: cost}
	c.entries[key] = e
	c.clock++
	e.h, e.used = c.inflation+cost, c.clock
	heap.Push(&c.victims, e)
}

// touchLocked records a use of e: its priority resets to L + cost and
// it becomes the most recently used.
func (c *Cache) touchLocked(e *cacheEntry) {
	c.clock++
	e.h, e.used = c.inflation+e.cost, c.clock
	heap.Fix(&c.victims, e.at)
}

// touchDisk records (or refreshes) a disk-tier index entry at the LRU
// front with its current framed size.
func (c *Cache) touchDisk(key string, size int64) {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	if el, ok := c.dindex[key]; ok {
		de := el.Value.(*diskEntry)
		c.dbytes += size - de.size
		de.size = size
		c.dlru.MoveToFront(el)
		return
	}
	c.dindex[key] = c.dlru.PushFront(&diskEntry{key: key, size: size})
	c.dbytes += size
}

// dropDiskIndex forgets a disk-tier entry (evicted, quarantined, or
// externally removed) without touching the file.
func (c *Cache) dropDiskIndex(key string) {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	if el, ok := c.dindex[key]; ok {
		c.dbytes -= el.Value.(*diskEntry).size
		c.dlru.Remove(el)
		delete(c.dindex, key)
	}
}

// gc evicts least-recently-used disk entries until the tier fits the
// byte budget. Victims are chosen under the index lock but removed
// outside it; a concurrent reader of a victim either finishes its read
// (serving a still-correct value) or sees not-exist (a miss).
func (c *Cache) gc() {
	if c.dbudget <= 0 {
		return
	}
	var victims []string
	c.dmu.Lock()
	for c.dbytes > c.dbudget && c.dlru.Len() > 0 {
		oldest := c.dlru.Back()
		de := oldest.Value.(*diskEntry)
		c.dlru.Remove(oldest)
		delete(c.dindex, de.key)
		c.dbytes -= de.size
		victims = append(victims, de.key)
	}
	c.dmu.Unlock()
	for _, key := range victims {
		os.Remove(c.diskPath(key))
		c.gcEvictions.Add(1)
	}
}

// quarantine renames a corrupt entry aside — it must never be served
// and never be retried, but an operator may want the bytes.
func (c *Cache) quarantine(key, path string) {
	c.quarantined.Add(1)
	os.Rename(path, path+quarantineSuffix) //nolint:errcheck // best-effort: a failed rename degrades to a reread next time
	c.dropDiskIndex(key)
}

// diskFailure counts one persistent-tier I/O failure; diskFailureLimit
// consecutive ones disable the tier for the rest of the process.
func (c *Cache) diskFailure() {
	c.diskErrs.Add(1)
	if c.consecFail.Add(1) >= diskFailureLimit {
		c.disabled.Store(true)
	}
}

// diskOK resets the consecutive-failure streak.
func (c *Cache) diskOK() {
	c.consecFail.Store(0)
}

// Keys returns every key present in either tier — how the server
// rebuilds its fingerprint index after a restart. Quarantined files no
// longer carry the entry suffix and are excluded.
func (c *Cache) Keys() []string {
	seen := make(map[string]bool)
	var out []string
	c.mu.Lock()
	for k := range c.entries {
		seen[k] = true
		out = append(out, k)
	}
	c.mu.Unlock()
	if c.dir != "" {
		if names, err := os.ReadDir(c.dir); err == nil {
			for _, n := range names {
				key, ok := strings.CutSuffix(n.Name(), ".json")
				if !ok || seen[key] {
					continue
				}
				out = append(out, key)
			}
		}
	}
	return out
}

// MemLen returns the number of memory-tier entries.
func (c *Cache) MemLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.victims)
}

// Stats snapshots the cache's health counters.
func (c *Cache) Stats() CacheStats {
	c.dmu.Lock()
	dbytes := c.dbytes
	c.dmu.Unlock()
	return CacheStats{
		MemEvictions: c.memEvictions.Load(),
		DiskErrors:   c.diskErrs.Load(),
		Quarantined:  c.quarantined.Load(),
		GCEvictions:  c.gcEvictions.Load(),
		DiskBytes:    dbytes,
		DiskDegraded: c.disabled.Load(),
	}
}

func (c *Cache) diskPath(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// frame wraps a payload in the checksummed on-disk format.
func frame(val []byte) []byte {
	sum := sha256.Sum256(val)
	hdr := fmt.Sprintf("%s %x %d\n", diskMagic, sum, len(val))
	out := make([]byte, 0, len(hdr)+len(val))
	out = append(out, hdr...)
	return append(out, val...)
}

// unframe validates a framed entry and returns its payload. Any
// deviation — missing or malformed header, length mismatch (a
// truncated or padded file), checksum mismatch (bit rot, a torn or
// hand-edited file) — reports !ok.
func unframe(data []byte) ([]byte, bool) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, false
	}
	fields := strings.Fields(string(data[:nl]))
	if len(fields) != 3 || fields[0] != diskMagic {
		return nil, false
	}
	wantSum, err := hex.DecodeString(fields[1])
	if err != nil || len(wantSum) != sha256.Size {
		return nil, false
	}
	wantLen, err := strconv.Atoi(fields[2])
	if err != nil {
		return nil, false
	}
	payload := data[nl+1:]
	if len(payload) != wantLen {
		return nil, false
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], wantSum) {
		return nil, false
	}
	return payload, true
}
