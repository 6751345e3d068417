package xquery

import (
	"fmt"
	"hash/fnv"
)

// Expression fingerprints key the prepared-analysis plan cache: two
// surface inputs that normalize to the same canonical form hash
// equally, so replayed (view, update) pairs hit one cached plan per
// schema no matter how they were spelled. The hash runs over the
// canonical rendering of the *normalized* AST — whitespace, sugar
// (surface paths vs nested for), binder names, sequence association
// and for-nesting rotations all collapse before hashing.

func fingerprint(domain string, canonical string) string {
	h := fnv.New64a()
	h.Write([]byte(domain))
	h.Write([]byte{0})
	h.Write([]byte(canonical))
	return fmt.Sprintf("%016x", h.Sum64())
}

// FingerprintQuery returns the content fingerprint of q, stable
// across sugar and binder-name variants.
func FingerprintQuery(q Query) string {
	return fingerprint("q", CanonicalQuery(Normalize(q)))
}

// FingerprintUpdate returns the content fingerprint of u.
func FingerprintUpdate(u Update) string {
	return fingerprint("u", CanonicalUpdate(NormalizeUpdate(u)))
}

// FingerprintPair combines the query and update fingerprints into the
// pair key the plan cache uses.
func FingerprintPair(q Query, u Update) string {
	return PairKey(FingerprintQuery(q), FingerprintUpdate(u))
}

// PairKey derives the pair key from the two side fingerprints
// (FingerprintQuery, FingerprintUpdate), so a caller that already
// holds them need not normalize and print either side again. The
// domain separators keep a pair key from colliding with either side's
// own fingerprint.
func PairKey(qfp, ufp string) string {
	return fingerprint("p", qfp+"\x00"+ufp)
}
