package xquery_test

// The printer/parser round-trip property test: for every XMark view
// and update, the canonical rendering re-parses, and re-printing the
// re-parsed AST reproduces the rendering byte for byte. This pins the
// canonical form that expression fingerprints hash — any printer or
// parser change that breaks the fixpoint breaks plan-cache keying and
// fails here first.

import (
	"fmt"
	"hash/fnv"
	"testing"

	"xqindep/internal/xmark"
	"xqindep/internal/xquery"
)

func roundTripQuery(t *testing.T, name string, q xquery.Query) {
	t.Helper()
	c1 := xquery.CanonicalQuery(q)
	q2, err := xquery.ParseQuery(c1)
	if err != nil {
		t.Fatalf("%s: canonical form does not re-parse: %v\ncanonical: %s", name, err, c1)
	}
	c2 := xquery.CanonicalQuery(q2)
	if c1 != c2 {
		t.Fatalf("%s: print→parse→print is not a fixpoint:\nfirst:  %s\nsecond: %s", name, c1, c2)
	}
}

func roundTripUpdate(t *testing.T, name string, u xquery.Update) {
	t.Helper()
	c1 := xquery.CanonicalUpdate(u)
	u2, err := xquery.ParseUpdate(c1)
	if err != nil {
		t.Fatalf("%s: canonical form does not re-parse: %v\ncanonical: %s", name, err, c1)
	}
	c2 := xquery.CanonicalUpdate(u2)
	if c1 != c2 {
		t.Fatalf("%s: print→parse→print is not a fixpoint:\nfirst:  %s\nsecond: %s", name, c1, c2)
	}
}

func TestCanonicalRoundTripXMarkViews(t *testing.T) {
	views := xmark.Views()
	if len(views) != 36 {
		t.Fatalf("expected 36 XMark views, got %d", len(views))
	}
	for _, v := range views {
		roundTripQuery(t, v.Name, v.AST)
		// The fingerprint hashes the canonical form of the normalized
		// AST; normalization must not leave the printable fragment.
		roundTripQuery(t, v.Name+"/normalized", xquery.Normalize(v.AST))
	}
}

func TestCanonicalRoundTripXMarkUpdates(t *testing.T) {
	upds := xmark.Updates()
	if len(upds) != 31 {
		t.Fatalf("expected 31 XMark updates, got %d", len(upds))
	}
	for _, u := range upds {
		roundTripUpdate(t, u.Name, u.AST)
		roundTripUpdate(t, u.Name+"/normalized", xquery.NormalizeUpdate(u.AST))
	}
}

// TestCanonicalRoundTripHandCases covers constructs thin on the XMark
// workload: element constructors with holes, let, nested predicates
// with or/and/not, comparisons, update forms.
func TestCanonicalRoundTripHandCases(t *testing.T) {
	queries := []string{
		`()`,
		`"lit"`,
		`$root/child::a`,
		`(/a/b, //c, "x")`,
		`let $x := /site/regions return ($x/child::africa, $x/child::asia)`,
		`for $x in //item return <wrap>{$x/name, <sep/>}</wrap>`,
		`if (//bidder) then //seller else ()`,
		`//item[payment and not(shipping)]/name`,
		`//person[address/city = "Oslo" or watching]/name`,
		`/site/people/person[profile/age >= 18][interest]/name`,
		`for $x in //item return if ($x/payment) then $x/name else $x/id`,
	}
	for _, src := range queries {
		q, err := xquery.ParseQuery(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		roundTripQuery(t, src, q)
		roundTripQuery(t, src+"/normalized", xquery.Normalize(q))
	}
	updates := []string{
		`delete //seller`,
		`delete nodes /site/regions/africa/item[payment]`,
		`rename node //person/name as alias`,
		`replace node //item/payment with <payment>{"cash"}</payment>`,
		`insert node <note/> as first into //open_auction`,
		`(delete //bidder, for $x in //item return insert node <sold/> into $x)`,
		`for $p in //person return if ($p/watching) then delete $p/address else ()`,
		`let $r := /site/regions return delete $r/namerica`,
	}
	for _, src := range updates {
		u, err := xquery.ParseUpdate(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		roundTripUpdate(t, src, u)
		roundTripUpdate(t, src+"/normalized", xquery.NormalizeUpdate(u))
	}
}

// TestFingerprintStability: fingerprints collapse whitespace, binder
// naming and path sugar; distinct expressions keep distinct prints.
func TestFingerprintStability(t *testing.T) {
	same := [][2]string{
		{`//item/name`, "  //item/name\n"},
		{`/site/regions`, `/site/child::regions`},
		{`for $x in //item return $x/name`, `for $y in //item return $y/name`},
		{`//a/b`, `for $z in //a return $z/b`},
	}
	for _, pair := range same {
		a := xquery.MustParseQuery(pair[0])
		b := xquery.MustParseQuery(pair[1])
		if xquery.FingerprintQuery(a) != xquery.FingerprintQuery(b) {
			t.Errorf("fingerprints of equivalent %q and %q differ:\n%s\n%s",
				pair[0], pair[1],
				xquery.CanonicalQuery(xquery.Normalize(a)),
				xquery.CanonicalQuery(xquery.Normalize(b)))
		}
	}
	if xquery.FingerprintQuery(xquery.MustParseQuery(`//item`)) ==
		xquery.FingerprintQuery(xquery.MustParseQuery(`//person`)) {
		t.Error("distinct queries share a fingerprint")
	}
	ua := xquery.MustParseUpdate(`delete //seller`)
	ub := xquery.MustParseUpdate(`delete node //seller`)
	if xquery.FingerprintUpdate(ua) != xquery.FingerprintUpdate(ub) {
		t.Error("delete / delete node should fingerprint equally")
	}
	// A pair fingerprint must not collide with a component reordering.
	q1, u1 := xquery.MustParseQuery(`//item`), xquery.MustParseUpdate(`delete //person`)
	q2, u2 := xquery.MustParseQuery(`//person`), xquery.MustParseUpdate(`delete //item`)
	if xquery.FingerprintPair(q1, u1) == xquery.FingerprintPair(q2, u2) {
		t.Error("pair fingerprint ignores component roles")
	}
}

// legacyKey is the fingerprint construction plan keys have always
// used, written out with hash/fnv: FNV-1a over domain, NUL, payload.
func legacyKey(domain, payload string) string {
	h := fnv.New64a()
	h.Write([]byte(domain))
	h.Write([]byte{0})
	h.Write([]byte(payload))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPairKeyMatchesFingerprintPair: over every XMark view × update,
// the pair key derived from the two side fingerprints equals
// FingerprintPair byte for byte, and both equal the key the plan
// cache has always derived from the normalized sides — so deriving
// the pair key from side fingerprints changes no plan key.
func TestPairKeyMatchesFingerprintPair(t *testing.T) {
	for _, v := range xmark.Views() {
		qfp := xquery.FingerprintQuery(v.AST)
		nq := xquery.Normalize(v.AST)
		if want := legacyKey("q", xquery.CanonicalQuery(nq)); qfp != want {
			t.Fatalf("%s: query fingerprint %s, want %s", v.Name, qfp, want)
		}
		for _, u := range xmark.Updates() {
			ufp := xquery.FingerprintUpdate(u.AST)
			nu := xquery.NormalizeUpdate(u.AST)
			key := xquery.PairKey(qfp, ufp)
			if pair := xquery.FingerprintPair(v.AST, u.AST); key != pair {
				t.Fatalf("%s × %s: PairKey %s, FingerprintPair %s", v.Name, u.Name, key, pair)
			}
			legacy := legacyKey("p",
				legacyKey("q", xquery.CanonicalQuery(xquery.Normalize(nq)))+"\x00"+
					legacyKey("u", xquery.CanonicalUpdate(xquery.NormalizeUpdate(nu))))
			if key != legacy {
				t.Fatalf("%s × %s: PairKey %s, legacy plan key %s", v.Name, u.Name, key, legacy)
			}
		}
	}
}
