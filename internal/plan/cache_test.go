package plan

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"xqindep/internal/dtd"
	"xqindep/internal/guard"
	"xqindep/internal/xquery"
)

// goodPlan builds a real plan for one bib pair through the cold
// stages, outside any cache.
func goodPlan(t *testing.T) *CompiledExpr {
	t.Helper()
	d := dtd.MustParse("bib <- book*\nbook <- title, price?\ntitle <- #PCDATA\nprice <- #PCDATA")
	c, err := dtd.Compile(d)
	if err != nil {
		t.Fatal(err)
	}
	q := xquery.MustParseQuery("//title")
	u := xquery.MustParseUpdate("delete //title")
	qfp, ufp := xquery.FingerprintQuery(q), xquery.FingerprintUpdate(u)
	b := guard.New(context.Background(), guard.Limits{})
	ce := build(c, q, u, c.Fingerprint(), qfp, ufp, xquery.PairKey(qfp, ufp), b)
	if err := ce.Verify(); err != nil {
		t.Fatal(err)
	}
	return ce
}

func copyOf(ce *CompiledExpr) *CompiledExpr {
	cc := *ce
	return &cc
}

// TestStaleVerifyFailureKeepsReplacement: a hit that failed Verify
// outside the lock must not evict a plan that replaced the failing
// resident in the meantime.
func TestStaleVerifyFailureKeepsReplacement(t *testing.T) {
	good := goodPlan(t)
	bad := good.CorruptClone()
	pc := NewCache(4)
	key := planKey{schemaFP: good.schemaFP, pairFP: good.pairFP}
	pc.Get(key.schemaFP, key.pairFP, func() *CompiledExpr { return bad })

	// Two hits probe the failing resident before either verifies.
	el1, ce1 := pc.lookup(key)
	el2, ce2 := pc.lookup(key)
	if ce1 != bad || ce2 != bad || el1 != el2 {
		t.Fatal("probe did not return the planted resident")
	}
	// The first drops it and rebuilds.
	pc.dropIfResident(key, el1)
	fresh := copyOf(good)
	if got, warm := pc.Get(key.schemaFP, key.pairFP, func() *CompiledExpr { return fresh }); got != fresh || warm {
		t.Fatal("rebuild did not install the fresh plan")
	}
	// The second's stale failure arrives after the replacement.
	pc.dropIfResident(key, el2)
	got, warm := pc.Get(key.schemaFP, key.pairFP, func() *CompiledExpr {
		t.Fatal("stale verify failure evicted the replacement")
		return nil
	})
	if got != fresh || !warm {
		t.Fatalf("after a stale failure: got %p warm=%v, want the replacement %p warm", got, warm, fresh)
	}
}

// TestConcurrentHitsOnFailingResident races goroutines on a resident
// that fails Verify while their own rebuilds replace it (run under
// -race). No caller may be served the failing plan, and once the
// first replacement is resident no stale failure may evict it: every
// caller in a round ends up with that one instance.
func TestConcurrentHitsOnFailingResident(t *testing.T) {
	good := goodPlan(t)
	bad := good.CorruptClone()
	pc := NewCache(4)
	sfp, pfp := good.schemaFP, good.pairFP
	const rounds, workers, gets = 50, 8, 20

	for round := 0; round < rounds; round++ {
		pc.Purge(sfp, pfp)
		pc.Get(sfp, pfp, func() *CompiledExpr { return bad })

		var builds atomic.Int64
		var mu sync.Mutex
		served := make(map[*CompiledExpr]bool)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < gets; i++ {
					ce, _ := pc.Get(sfp, pfp, func() *CompiledExpr {
						builds.Add(1)
						return copyOf(good)
					})
					if ce == bad || ce.Verify() != nil {
						t.Errorf("round %d: served a plan that fails Verify", round)
						return
					}
					mu.Lock()
					served[ce] = true
					mu.Unlock()
				}
			}()
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}
		if len(served) != 1 {
			t.Fatalf("round %d: %d distinct plans served after %d builds; a stale failure evicted a replacement",
				round, len(served), builds.Load())
		}
		res := pc.Residents()
		if len(res) != 1 || !served[res[0]] {
			t.Fatalf("round %d: resident is not the plan every caller was served", round)
		}
	}
	if st := pc.Stats(); st.VerifyFailures < rounds {
		t.Fatalf("verify failures = %d, want at least one per round (%d)", st.VerifyFailures, rounds)
	}
}
