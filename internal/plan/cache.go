package plan

import (
	"container/list"
	"sort"
	"sync"
	"sync/atomic"
)

// Cache is a bounded LRU of prepared plans keyed by (schema
// fingerprint, expression-pair fingerprint), modeled on
// dtd.CompileCache: hit-ordered eviction (least-recently-hit first) so
// purge→rebuild behavior is reproducible under chaos schedules, cold
// builds outside the lock so a slow inference never blocks hits on
// other plans, and verify-on-hit so a resident that fails its content
// checksum is dropped and rebuilt instead of served. A hit holds mu
// only for the map probe and the LRU move; Verify runs after the
// unlock, so hits on different plans (or the same plan) proceed in
// parallel.
type Cache struct {
	mu  sync.Mutex
	max int
	m   map[planKey]*list.Element
	// lru orders residents most-recently-hit first; Back() is the
	// eviction victim. Element values are *planEntry.
	lru       list.List
	evictions int64
	purges    int64
	// Bumped outside mu.
	hits           atomic.Int64
	misses         atomic.Int64
	verifyFailures atomic.Int64
}

type planKey struct {
	schemaFP string
	pairFP   string
}

type planEntry struct {
	key planKey
	ce  *CompiledExpr
}

// NewCache returns a cache holding at most max plans (minimum 1).
func NewCache(max int) *Cache {
	if max < 1 {
		max = 1
	}
	pc := &Cache{max: max, m: make(map[planKey]*list.Element)}
	pc.lru.Init()
	return pc
}

// Get returns the resident plan for the key, building and caching one
// on first sight. The build closure runs outside the lock and may
// abort via guard (budget overrun, injected fault) — nothing is cached
// in that case. A hit whose resident fails Verify is treated as a
// miss: the corrupted artifact is evicted and a fresh build replaces
// it. The returned bool reports warm provenance: true only for a
// verified hit. When two requests race on a cold key, the first
// result cached wins and the loser's build is discarded — the loser
// still reports cold, since it paid the cold cost. A nil *Cache
// degenerates to an uncached cold build.
func (pc *Cache) Get(schemaFP, pairFP string, build func() *CompiledExpr) (*CompiledExpr, bool) {
	if pc == nil {
		return build(), false
	}
	key := planKey{schemaFP: schemaFP, pairFP: pairFP}
	if el, ce := pc.lookup(key); el != nil {
		if ce.Verify() == nil {
			pc.hits.Add(1)
			return ce, true
		}
		// Corrupted resident: drop it and fall through to a fresh
		// build. The failure is counted so /statz surfaces it.
		pc.verifyFailures.Add(1)
		pc.dropIfResident(key, el)
	}
	pc.misses.Add(1)

	ce := build()

	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el := pc.m[key]; el != nil {
		// Lost a build race; keep the resident plan so every caller
		// shares one instance.
		pc.lru.MoveToFront(el)
		return el.Value.(*planEntry).ce, false
	}
	for pc.lru.Len() >= pc.max {
		victim := pc.lru.Back()
		pc.lru.Remove(victim)
		delete(pc.m, victim.Value.(*planEntry).key)
		pc.evictions++
	}
	pc.m[key] = pc.lru.PushFront(&planEntry{key: key, ce: ce})
	return ce, false
}

// lookup probes for the key and marks a resident most recently hit.
// It returns the resident's element (nil on a miss) and plan.
func (pc *Cache) lookup(key planKey) (*list.Element, *CompiledExpr) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el := pc.m[key]
	if el == nil {
		return nil, nil
	}
	pc.lru.MoveToFront(el)
	return el, el.Value.(*planEntry).ce
}

// dropIfResident evicts el if it is still the resident for key. A
// plan that failed Verify outside the lock may have been replaced by
// a fresh build in the meantime; the stale failure must not evict the
// replacement.
func (pc *Cache) dropIfResident(key planKey, el *list.Element) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.m[key] == el {
		pc.lru.Remove(el)
		delete(pc.m, key)
	}
}

// Purge drops the resident plan for the key, reporting whether one
// was resident.
func (pc *Cache) Purge(schemaFP, pairFP string) bool {
	if pc == nil {
		return false
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el := pc.m[planKey{schemaFP: schemaFP, pairFP: pairFP}]
	if el == nil {
		return false
	}
	pc.lru.Remove(el)
	delete(pc.m, el.Value.(*planEntry).key)
	pc.purges++
	return true
}

// PurgeSchema drops every resident plan inferred under the schema
// fingerprint, returning how many were dropped. The quarantine path
// uses it after an audit disagreement: a verdict cached under a
// suspect schema must not outlive the suspicion, so containment
// purges the plan cache alongside the compiled-schema cache and the
// next request re-infers from a freshly compiled artifact.
func (pc *Cache) PurgeSchema(schemaFP string) int {
	if pc == nil {
		return 0
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	n := 0
	for el := pc.lru.Front(); el != nil; {
		next := el.Next()
		ent := el.Value.(*planEntry)
		if ent.key.schemaFP == schemaFP {
			pc.lru.Remove(el)
			delete(pc.m, ent.key)
			pc.purges++
			n++
		}
		el = next
	}
	return n
}

// CacheStats is a point-in-time snapshot of a plan cache, exposed by
// the daemon's /statz endpoint.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Purges counts residents dropped by Purge/PurgeSchema (quarantine
	// containment path).
	Purges int64 `json:"purges"`
	// VerifyFailures counts cache hits whose resident failed its
	// Verify self-check and was rebuilt.
	VerifyFailures int64 `json:"verify_failures"`
	Resident       int64 `json:"resident"`
	// Schemas summarises resident plans per schema fingerprint, sorted
	// by fingerprint.
	Schemas []SchemaPlanStat `json:"schemas,omitempty"`
}

// SchemaPlanStat counts the resident plans of one schema.
type SchemaPlanStat struct {
	Fingerprint string `json:"fingerprint"`
	Plans       int    `json:"plans"`
}

// Stats returns a snapshot of the cache counters and residents.
func (pc *Cache) Stats() CacheStats {
	if pc == nil {
		return CacheStats{}
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	st := CacheStats{
		Hits:           pc.hits.Load(),
		Misses:         pc.misses.Load(),
		Evictions:      pc.evictions,
		Purges:         pc.purges,
		VerifyFailures: pc.verifyFailures.Load(),
		Resident:       int64(pc.lru.Len()),
	}
	perSchema := make(map[string]int)
	for el := pc.lru.Front(); el != nil; el = el.Next() {
		perSchema[el.Value.(*planEntry).key.schemaFP]++
	}
	for fp, n := range perSchema {
		st.Schemas = append(st.Schemas, SchemaPlanStat{Fingerprint: fp, Plans: n})
	}
	sort.Slice(st.Schemas, func(i, j int) bool {
		return st.Schemas[i].Fingerprint < st.Schemas[j].Fingerprint
	})
	return st
}

// Residents returns the resident plans in LRU order, most-recently-hit
// first (test support: the chaos suite sweeps them with Verify to
// assert no injected corruption ever reached the cache).
func (pc *Cache) Residents() []*CompiledExpr {
	if pc == nil {
		return nil
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	out := make([]*CompiledExpr, 0, pc.lru.Len())
	for el := pc.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*planEntry).ce)
	}
	return out
}

// DefaultCacheSize is the resident-plan bound used when a caller asks
// for a cache without sizing it. 4096 plans comfortably hold the full
// XMark view×update matrix (36×31 = 1116) per schema.
const DefaultCacheSize = 4096

// defaultCache is the process-wide plan cache shared by core and the
// CLIs when no explicit cache is configured.
var defaultCache = NewCache(DefaultCacheSize)

// Shared returns the process-wide plan cache.
func Shared() *Cache { return defaultCache }
