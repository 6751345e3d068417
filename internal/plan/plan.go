// Package plan implements the prepared-analysis pipeline: the staged
// decomposition of one chain-method analysis into reusable, immutable
// artifacts. A CompiledExpr holds exactly the facts the CDAG rung of
// core serves for a (schema, query-update pair) — the content
// fingerprints, the Table 3 k-factors, and the decision with its
// multiplicity and conflict reasons — keyed by (schema fingerprint,
// expression-pair fingerprint) so repeated requests over the same
// logical pair (whitespace variants, renamed binders, sugared axes)
// resolve to one cached plan. The chain DAGs and normalized ASTs the
// verdict was inferred from are dropped once the build finishes:
// nothing reads them after the conflict checks.
//
// The stages mirror the analysis pipeline of the paper: fingerprint
// (parse/normalize, Section 2 sugar), k-factors (Table 3, Section 5),
// chain inference (Sections 3–6). Each stage is budget-checked through
// guard and fault-injectable under a core.plan/* point, so the
// degradation ladder and the sentinel audit layer compose with the
// cache unchanged: a cached verdict is re-admitted against every
// request's own k limit, re-verified against its content checksum on
// every hit, and purged wholesale when the schema it was inferred
// under is quarantined.
package plan

import (
	"errors"
	"fmt"

	"xqindep/internal/cdag"
	"xqindep/internal/dtd"
	"xqindep/internal/guard"
	"xqindep/internal/infer"
	"xqindep/internal/xquery"
)

// CompiledExpr is the immutable prepared-analysis artifact for one
// (schema, query-update pair): the content fingerprints, the
// syntactic multiplicity factors of Table 3, and the facts of the
// CDAG verdict inferred under the compiled schema. Construct it only
// through Prepare (or the cache's builder); after construction nothing
// may write to it — the checksum seals the content and Verify
// re-derives it on every cache hit, so any post-construction mutation
// is caught before the plan is served again.
type CompiledExpr struct {
	schemaFP string
	queryFP  string
	updateFP string
	pairFP   string
	kq       int
	ku       int
	k        int
	// verdict carries only Independent, K and Reasons: no chain sets.
	verdict  cdag.Verdict
	checksum uint64
}

// SchemaFingerprint returns the fingerprint of the schema the plan
// was inferred under.
func (ce *CompiledExpr) SchemaFingerprint() string { return ce.schemaFP }

// QueryFingerprint returns the content fingerprint of the normalized
// query.
func (ce *CompiledExpr) QueryFingerprint() string { return ce.queryFP }

// UpdateFingerprint returns the content fingerprint of the normalized
// update.
func (ce *CompiledExpr) UpdateFingerprint() string { return ce.updateFP }

// PairFingerprint returns the joint fingerprint the cache keys on.
func (ce *CompiledExpr) PairFingerprint() string { return ce.pairFP }

// KQuery returns k_q of Table 3.
func (ce *CompiledExpr) KQuery() int { return ce.kq }

// KUpdate returns k_u of Table 3.
func (ce *CompiledExpr) KUpdate() int { return ce.ku }

// K returns the joint multiplicity k = max(1, k_q + k_u) the chain
// universe was bounded by.
func (ce *CompiledExpr) K() int { return ce.k }

// Verdict returns the facts of the inferred CDAG verdict: Independent,
// K and Reasons. Its Query chain sets and Update set are nil. The
// Reasons slice is part of the sealed artifact: read it, never mutate
// it.
func (ce *CompiledExpr) Verdict() cdag.Verdict { return ce.verdict }

// Checksum returns the content checksum sealed at construction.
func (ce *CompiledExpr) Checksum() uint64 { return ce.checksum }

// FNV-1a, 64-bit, written out so that sealing and verifying a plan
// allocate nothing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvInt(h uint64, v int) uint64 {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		h ^= u & 0xff
		h *= fnvPrime
		u >>= 8
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	h = fnvInt(h, len(s))
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// computeChecksum hashes every field the plan serves. Its cost depends
// on the fingerprints and the (at most three) conflict reasons, never
// on the size of the chain DAGs the verdict was inferred from.
func (ce *CompiledExpr) computeChecksum() uint64 {
	h := uint64(fnvOffset)
	h = fnvString(h, ce.schemaFP)
	h = fnvString(h, ce.queryFP)
	h = fnvString(h, ce.updateFP)
	h = fnvString(h, ce.pairFP)
	h = fnvInt(h, ce.kq)
	h = fnvInt(h, ce.ku)
	h = fnvInt(h, ce.k)
	indep := 0
	if ce.verdict.Independent {
		indep = 1
	}
	h = fnvInt(h, indep)
	h = fnvInt(h, ce.verdict.K)
	h = fnvInt(h, len(ce.verdict.Reasons))
	for _, r := range ce.verdict.Reasons {
		h = fnvString(h, r)
	}
	return h
}

// Verify checks the plan's structural invariants and re-derives its
// content checksum. The cache runs it on every hit, outside its lock:
// a mismatch means something wrote to the artifact after
// construction, and the resident is dropped and rebuilt rather than
// served. Verify allocates nothing unless it fails.
func (ce *CompiledExpr) Verify() error {
	if ce == nil {
		return errors.New("plan: nil CompiledExpr")
	}
	if ce.schemaFP == "" || ce.queryFP == "" || ce.updateFP == "" || ce.pairFP == "" {
		return errors.New("plan: missing fingerprint")
	}
	if ce.verdict.Query != (cdag.QueryChains{}) || ce.verdict.Update != nil {
		return errors.New("plan: verdict retains chain sets")
	}
	want := ce.kq + ce.ku
	if want < 1 {
		want = 1
	}
	if ce.k != want {
		return fmt.Errorf("plan: k=%d inconsistent with kq=%d ku=%d", ce.k, ce.kq, ce.ku)
	}
	if ce.verdict.K != ce.k {
		return fmt.Errorf("plan: verdict k=%d differs from plan k=%d", ce.verdict.K, ce.k)
	}
	if got := ce.computeChecksum(); got != ce.checksum {
		return fmt.Errorf("plan: checksum mismatch: computed %016x, sealed %016x", got, ce.checksum)
	}
	return nil
}

// CorruptClone returns a copy of the plan with the decision flipped
// and the checksum left stale, so Verify fails on the clone and any
// caller serving it gets exactly the unsoundness the sentinel audit
// layer must contain. The original (a cache resident shared across
// requests) is untouched: chaos injection must corrupt a private copy,
// never the artifact other requests will be served. Test and chaos
// support only.
func (ce *CompiledExpr) CorruptClone() *CompiledExpr {
	cc := *ce
	//xqvet:ignore verdictflow deliberate chaos corruption of a private copy; the sentinel audit layer catches the unsound verdicts it causes
	cc.verdict.Independent = !ce.verdict.Independent
	return &cc
}

// Prepare resolves the prepared plan for the pair under the compiled
// schema, running the staged pipeline:
//
//	core.plan/fingerprint  fingerprint each side once (normalize and
//	                       canonical-print); the pair key is derived
//	                       from the two side fingerprints
//	core.plan/lookup       consult cache (verify-on-hit); on miss the
//	                       builder runs the two cold stages:
//	core.plan/kfactors       normalize, k_q, k_u, k per Table 3,
//	                         admission check
//	core.plan/infer          CDAG chain inference, facts sealed
//	core.plan/artifact     hand the plan to the caller (chaos
//	                       corrupt-artifact injection point)
//
// Every stage charges b; stage overruns abort via guard and surface at
// the caller's guard.Recover boundary exactly as the monolithic path
// did, so the degradation ladder applies unchanged. The returned bool
// reports warm provenance: true when the plan came from cache without
// running the cold stages. A cached plan's k is re-checked against
// b's own limits — admission is per-request even when inference is
// amortised. cache may be nil to force an uncached cold build (used
// by core when a chaos fault corrupts the schema artifact itself:
// plans inferred under a corrupted schema must never enter the cache).
func Prepare(cache *Cache, c *dtd.Compiled, q xquery.Query, u xquery.Update, b *guard.Budget) (*CompiledExpr, bool, error) {
	b.Point("core.plan/fingerprint")
	qfp := xquery.FingerprintQuery(q)
	ufp := xquery.FingerprintUpdate(u)
	pairFP := xquery.PairKey(qfp, ufp)
	schemaFP := c.Fingerprint()

	b.Point("core.plan/lookup")
	ce, warm := cache.Get(schemaFP, pairFP, func() *CompiledExpr {
		return build(c, q, u, schemaFP, qfp, ufp, pairFP, b)
	})

	// Admission is per-request: a plan cached under one request's
	// limits may exceed this request's MaxK, and a warm hit must
	// degrade exactly as a cold build would have.
	if err := b.CheckK(ce.k); err != nil {
		return nil, warm, err
	}

	if ferr := guard.FirePoint(b.Context(), "core.plan/artifact"); ferr != nil {
		if !errors.Is(ferr, guard.ErrArtifactCorrupt) {
			return nil, warm, ferr
		}
		// Chaos corrupt-artifact injection: serve a privately corrupted
		// clone. The cache resident stays intact — corruption must not
		// leak across requests — and the clone fails Verify, which is
		// exactly what the containment layers are tested against.
		ce = ce.CorruptClone()
	}
	return ce, warm, nil
}

// build runs the cold stages. It charges b throughout and aborts via
// guard on overrun; the cache never sees a partially built plan.
func build(c *dtd.Compiled, q xquery.Query, u xquery.Update, schemaFP, qfp, ufp, pairFP string, b *guard.Budget) *CompiledExpr {
	b.Point("core.plan/kfactors")
	nq := xquery.Normalize(q)
	nu := xquery.NormalizeUpdate(u)
	kq := infer.KQuery(nq)
	ku := infer.KUpdate(nu)
	k := infer.KPair(nq, nu)
	if err := b.CheckK(k); err != nil {
		guard.Abort(err)
	}

	b.Point("core.plan/infer")
	// cdag.build is the historical chain-inference point; chaos
	// schedules arming it must still reach it on every cold build.
	b.Point("cdag.build")
	v := cdag.EngineForCompiled(c, nq, nu).WithBudget(b).CheckIndependence(nq, nu)

	// Keep only the facts core serves. The chain sets, and with them
	// the engine and the request budget it holds, become garbage here:
	// a resident must not retain a finished request's context.
	ce := &CompiledExpr{
		schemaFP: schemaFP,
		queryFP:  qfp,
		updateFP: ufp,
		pairFP:   pairFP,
		kq:       kq,
		ku:       ku,
		k:        k,
		verdict:  cdag.Verdict{Independent: v.Independent, K: v.K, Reasons: v.Reasons},
	}
	ce.checksum = ce.computeChecksum()
	return ce
}
