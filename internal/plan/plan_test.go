package plan_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"xqindep/internal/dtd"
	"xqindep/internal/guard"
	"xqindep/internal/plan"
	"xqindep/internal/xquery"
)

var bib = dtd.MustParse(`
bib <- book*
book <- title, author*, price?
title <- #PCDATA
author <- #PCDATA
price <- #PCDATA
`)

func compiled(t *testing.T) *dtd.Compiled {
	t.Helper()
	c, err := dtd.Compile(bib)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return c
}

// prepare wraps plan.Prepare with the guard boundary a production
// caller (core.analyzeOnce) installs, so budget aborts surface as
// errors instead of panics.
func prepare(cache *plan.Cache, c *dtd.Compiled, qs, us string, lim guard.Limits) (ce *plan.CompiledExpr, warm bool, err error) {
	defer guard.Recover(&err)
	b := guard.New(context.Background(), lim)
	var perr error
	ce, warm, perr = plan.Prepare(cache, c, xquery.MustParseQuery(qs), xquery.MustParseUpdate(us), b)
	if err == nil {
		err = perr
	}
	return ce, warm, err
}

func TestPrepareColdThenWarm(t *testing.T) {
	c := compiled(t)
	cache := plan.NewCache(16)

	ce1, warm, err := prepare(cache, c, "//title", "delete //price", guard.Limits{})
	if err != nil {
		t.Fatalf("cold Prepare: %v", err)
	}
	if warm {
		t.Fatal("first Prepare reported warm")
	}
	if err := ce1.Verify(); err != nil {
		t.Fatalf("fresh plan fails Verify: %v", err)
	}
	if !ce1.Verdict().Independent {
		t.Fatal("//title vs delete //price should be independent")
	}

	// A sugared, whitespace-mangled variant of the same logical pair
	// must hit the same plan.
	ce2, warm, err := prepare(cache, c, "  /descendant-or-self::node()/child::title ", "delete   //price", guard.Limits{})
	if err != nil {
		t.Fatalf("warm Prepare: %v", err)
	}
	if !warm {
		t.Fatal("sugared variant missed the cache")
	}
	if ce2 != ce1 {
		t.Fatal("warm hit returned a different instance than the resident")
	}

	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Resident != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 resident", st)
	}
	if len(st.Schemas) != 1 || st.Schemas[0].Fingerprint != bib.Fingerprint() || st.Schemas[0].Plans != 1 {
		t.Fatalf("schema stats = %+v", st.Schemas)
	}
}

func TestFingerprintsDistinguishPairs(t *testing.T) {
	c := compiled(t)
	cache := plan.NewCache(16)
	a, _, err := prepare(cache, c, "//title", "delete //price", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	b, warm, err := prepare(cache, c, "//title", "delete //author", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("distinct update hit the cache")
	}
	if a.PairFingerprint() == b.PairFingerprint() {
		t.Fatal("distinct pairs share a pair fingerprint")
	}
	if a.QueryFingerprint() != b.QueryFingerprint() {
		t.Fatal("same query got different query fingerprints")
	}
	if a.SchemaFingerprint() != bib.Fingerprint() {
		t.Fatalf("schema fingerprint %q, want %q", a.SchemaFingerprint(), bib.Fingerprint())
	}
}

func TestCorruptCloneFailsVerifyResidentIntact(t *testing.T) {
	c := compiled(t)
	cache := plan.NewCache(16)
	ce, _, err := prepare(cache, c, "//title", "delete //title", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	cc := ce.CorruptClone()
	if cc == ce {
		t.Fatal("CorruptClone returned the resident itself")
	}
	// The damage is exactly the flipped decision under a stale seal.
	got, want := cc.Verdict(), ce.Verdict()
	if got.Independent == want.Independent {
		t.Fatal("corrupted clone did not flip the verdict")
	}
	if got.K != want.K || strings.Join(got.Reasons, ",") != strings.Join(want.Reasons, ",") {
		t.Fatalf("corrupted clone changed more than the decision: %+v vs %+v", got, want)
	}
	if cc.Checksum() != ce.Checksum() {
		t.Fatal("corrupted clone was resealed")
	}
	if err := cc.Verify(); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("corrupted clone: Verify = %v, want a checksum mismatch", err)
	}
	if err := ce.Verify(); err != nil {
		t.Fatalf("original damaged by CorruptClone: %v", err)
	}
	for _, r := range cache.Residents() {
		if err := r.Verify(); err != nil {
			t.Fatalf("resident damaged by CorruptClone: %v", err)
		}
	}
}

// TestResidentVerdictIsFactsOnly pins the slim artifact: a resident
// keeps the decision, k and the conflict reasons, and none of the
// chain sets they were inferred from.
func TestResidentVerdictIsFactsOnly(t *testing.T) {
	c := compiled(t)
	cache := plan.NewCache(16)
	for _, p := range [][2]string{
		{"//title", "delete //price"},
		{"//title", "delete //title"},
	} {
		if _, _, err := prepare(cache, c, p[0], p[1], guard.Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	res := cache.Residents()
	if len(res) != 2 {
		t.Fatalf("%d residents, want 2", len(res))
	}
	for _, r := range res {
		v := r.Verdict()
		if v.Query.Ret != nil || v.Query.Used != nil || v.Query.Elem != nil || v.Update != nil {
			t.Fatalf("resident %s retains chain sets", r.PairFingerprint())
		}
		if v.K != r.K() || v.Independent != (len(v.Reasons) == 0) {
			t.Fatalf("resident facts inconsistent: %+v, k=%d", v, r.K())
		}
	}
}

// TestWarmHitAllocs pins the verified hit path of Cache.Get: the
// probe, the LRU move and Verify allocate nothing.
func TestWarmHitAllocs(t *testing.T) {
	c := compiled(t)
	cache := plan.NewCache(16)
	ce, _, err := prepare(cache, c, "//title", "delete //price", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	schemaFP, pairFP := ce.SchemaFingerprint(), ce.PairFingerprint()
	build := func() *plan.CompiledExpr {
		t.Fatal("warm hit ran the builder")
		return nil
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, warm := cache.Get(schemaFP, pairFP, build); !warm {
			t.Fatal("resident plan missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Cache.Get allocates %.1f times per hit, want 0", allocs)
	}
}

func TestWarmHitRechecksMaxK(t *testing.T) {
	c := compiled(t)
	cache := plan.NewCache(16)
	// Cold build under permissive limits: k = kq + ku = 2 + 2 (one
	// recursive axis and one tag occurrence per side).
	ce, _, err := prepare(cache, c, "//title", "delete //price", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if ce.K() != 4 {
		t.Fatalf("k = %d, want 4", ce.K())
	}
	// The same pair under a stingier request must degrade even though
	// the plan is resident: admission is per-request.
	_, _, err = prepare(cache, c, "//title", "delete //price", guard.Limits{MaxK: 3})
	if err == nil {
		t.Fatal("warm hit ignored the request's MaxK")
	}
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("want budget error, got %v", err)
	}
}

func TestColdBuildRespectsMaxK(t *testing.T) {
	c := compiled(t)
	cache := plan.NewCache(16)
	_, _, err := prepare(cache, c, "//title", "delete //price", guard.Limits{MaxK: 1})
	if err == nil {
		t.Fatal("cold build ignored MaxK")
	}
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("want budget error, got %v", err)
	}
	if st := cache.Stats(); st.Resident != 0 {
		t.Fatalf("rejected build left a resident: %+v", st)
	}
}

func TestPurgeSchema(t *testing.T) {
	other := dtd.MustParse(`
r <- a*
a <- #PCDATA
`)
	cb, err := dtd.Compile(bib)
	if err != nil {
		t.Fatal(err)
	}
	co, err := dtd.Compile(other)
	if err != nil {
		t.Fatal(err)
	}
	cache := plan.NewCache(16)
	if _, _, err := prepare(cache, cb, "//title", "delete //price", guard.Limits{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := prepare(cache, cb, "//author", "delete //price", guard.Limits{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := prepare(cache, co, "//a", "delete //a", guard.Limits{}); err != nil {
		t.Fatal(err)
	}
	if n := cache.PurgeSchema(bib.Fingerprint()); n != 2 {
		t.Fatalf("PurgeSchema dropped %d plans, want 2", n)
	}
	res := cache.Residents()
	if len(res) != 1 || res[0].SchemaFingerprint() != other.Fingerprint() {
		t.Fatalf("wrong survivors after PurgeSchema: %d residents", len(res))
	}
	// Purged pair rebuilds cold.
	_, warm, err := prepare(cache, cb, "//title", "delete //price", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("purged plan served warm")
	}
	if st := cache.Stats(); st.Purges != 2 {
		t.Fatalf("stats.Purges = %d, want 2", st.Purges)
	}
}

func TestLRUEviction(t *testing.T) {
	c := compiled(t)
	cache := plan.NewCache(2)
	pairs := [][2]string{
		{"//title", "delete //price"},
		{"//author", "delete //price"},
		{"//price", "delete //author"},
	}
	for _, p := range pairs {
		if _, _, err := prepare(cache, c, p[0], p[1], guard.Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.Resident != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 resident, 1 eviction", st)
	}
	// The least-recently-hit plan (the first) was the victim.
	_, warm, err := prepare(cache, c, pairs[0][0], pairs[0][1], guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("evicted plan served warm")
	}
}

func TestNilCacheBuildsCold(t *testing.T) {
	c := compiled(t)
	ce, warm, err := prepare(nil, c, "//title", "delete //price", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("nil cache reported warm")
	}
	if err := ce.Verify(); err != nil {
		t.Fatalf("uncached plan fails Verify: %v", err)
	}
	ce2, warm, err := prepare(nil, c, "//title", "delete //price", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if warm || ce2 == ce {
		t.Fatal("nil cache cached anyway")
	}
}
