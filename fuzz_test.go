package xqindep

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"xqindep/internal/cdag"
	"xqindep/internal/guard"
	"xqindep/internal/infer"
	"xqindep/internal/refcdag"
	"xqindep/internal/xmark"
	"xqindep/internal/xquery"
)

// FuzzAnalyzeContext drives the whole engine — schema, query and
// update parsing followed by every analysis method under a starvation
// budget — with arbitrary inputs. The invariants: malformed input is
// an ordinary error, a budget overrun degrades or errors but never
// hangs, and under no circumstances does a panic escape (an escaped
// panic would surface as *InternalError, which the fuzzer treats as a
// bug).
func FuzzAnalyzeContext(f *testing.F) {
	const recursive = "r <- (x | y | z)*\nx <- (x | y | z)*\ny <- (x | y | z)*\nz <- #PCDATA"
	const bib = "bib <- book*\nbook <- title, author*, price?\ntitle <- #PCDATA\nauthor <- #PCDATA\nprice <- #PCDATA"
	f.Add(bib, "//title", "delete //price")
	f.Add(bib, "for $b in //book return if ($b/author) then $b/title else ()", "for $x in //book return insert <author/> into $x")
	f.Add(recursive, "//y//z", "delete //x//z")
	f.Add(recursive, "//x//y//x//y//z", "delete //y//x//y//x//z")
	f.Add(xmark.SchemaText, "/site/people/person/name", "delete //price")
	f.Add(xmark.SchemaText, "//closed_auction//keyword", "for $p in /site/people/person return delete $p/homepage")
	// Update for-loops the dense engine infers set-wise, and the two
	// per-end shapes whose set-wise inference would differ.
	const rbench3 = "t1 <- (t1 | t2 | t3)*\nt2 <- (t1 | t2 | t3)*\nt3 <- (t1 | t2 | t3)*"
	f.Add(xmark.SchemaText, "//closed_auction//emph", "for $x in //closed_auction//bold return rename $x as emph")
	f.Add(rbench3, "//t2", "for $x in //t2 return (rename $x as t3, insert <new/> into $x)")
	f.Add(rbench3, "for $y in //t3 return $y/..", "for $x in //t1//t2 return replace $x with <t1/>")
	f.Add(rbench3, "/t1//new", "for $x in //t2 return insert /t1/t2 as last into $x")
	f.Add(rbench3, "//t1/t3", "for $x in //t2 return insert <new/> as first into $x/t2")
	f.Add(rbench3, "//t2//t1", "for $x in //t2 return (delete $x/t1, rename $x//t3 as t1)")

	methods := []Method{Chains, ChainsExact, Types, Paths}
	lim := Limits{MaxK: 6, MaxChains: 1 << 12, MaxNodes: 1 << 14}
	f.Fuzz(func(t *testing.T, ds, qs, us string) {
		s, err := ParseSchema(ds)
		if err != nil {
			return
		}
		q, err := ParseQuery(qs)
		if err != nil {
			return
		}
		u, err := ParseUpdate(us)
		if err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		for _, m := range methods {
			rep, err := s.AnalyzeContext(ctx, q, u, m, Options{Limits: lim})
			if err != nil {
				var ie *InternalError
				if errors.As(err, &ie) {
					t.Fatalf("internal error (escaped panic) for method %v:\nschema: %q\nquery: %q\nupdate: %q\n%v", m, ds, qs, us, err)
				}
				continue
			}
			if rep.Degraded && !errors.Is(rep.Err, ErrBudgetExceeded) {
				t.Fatalf("degraded verdict without a budget error: %+v", rep)
			}
		}
		// Engine differential: the dense CDAG engine (set-wise update
		// for-loops) and the per-end reference must agree on the
		// verdict and its reasons whenever both finish in budget.
		if !xquery.QuasiClosedQuery(q.ast) || !xquery.QuasiClosedUpdate(u.ast) || infer.KPair(q.ast, u.ast) > lim.MaxK {
			return
		}
		var dense cdag.Verdict
		derr := guard.Do(func() { dense = cdag.IndependenceBudget(s.d, q.ast, u.ast, guard.New(ctx, lim)) })
		var ref refcdag.Verdict
		rerr := guard.Do(func() { ref = refcdag.IndependenceBudget(s.d, q.ast, u.ast, guard.New(ctx, lim)) })
		for _, err := range []error{derr, rerr} {
			var ie *InternalError
			if errors.As(err, &ie) {
				t.Fatalf("internal error in a CDAG engine:\nschema: %q\nquery: %q\nupdate: %q\n%v", ds, qs, us, err)
			}
		}
		if derr != nil || rerr != nil {
			return
		}
		if dense.Independent != ref.Independent || !reflect.DeepEqual(dense.Reasons, ref.Reasons) {
			t.Fatalf("engines disagree:\nschema: %q\nquery: %q\nupdate: %q\ndense: %v\nreference: %v", ds, qs, us, dense, ref)
		}
	})
}

// FuzzParseDocument throws arbitrary bytes at the document parser.
// Seeds are the documents shipped in examples/. Invariants: malformed
// input is an ordinary error (no panic, no hang), and an accepted
// document serialises to a canonical form the parser accepts again and
// reproduces bit-for-bit (parse∘print is a projection).
func FuzzParseDocument(f *testing.F) {
	// The example documents, verbatim (examples/{quickstart,viewmaint,
	// xmlschema}/main.go), plus edge shapes.
	f.Add("<doc><a><c/></a><a><c/></a><b><c/></b><a><c/></a></doc>")
	f.Add(`<site>
  <items>
    <item><name>clock</name><description>antique <keyword>rare</keyword></description><mailbox><mail>q1</mail></mailbox></item>
    <item><name>vase</name><description>ming</description><mailbox/></item>
  </items>
  <auctions>
    <auction><itemname>clock</itemname><price>100</price><bidder>ann</bidder></auction>
    <auction><itemname>vase</itemname><price>40</price></auction>
  </auctions>
</site>`)
	f.Add(`<directory>
  <person><name><first>Ada</first><last>Lovelace</last></name><email>ada@x</email></person>
  <company><name>Analytical Engines Ltd</name><sector>compute</sector></company>
</directory>`)
	f.Add("<r><x><y><z>deep</z></y></x></r>")
	f.Add("<a/>")
	f.Add("<a>&lt;not a tag&gt;</a>")
	f.Add("<a><!-- comment --><b attr=\"dropped\"/>text</a>")
	f.Add("")
	f.Add("<unclosed>")
	f.Add(strings.Repeat("<a>", 200) + strings.Repeat("</a>", 200))

	f.Fuzz(func(t *testing.T, text string) {
		doc, err := ParseDocumentString(text)
		if err != nil {
			return
		}
		if doc.Size() < 1 {
			t.Fatalf("accepted document with %d nodes: %q", doc.Size(), text)
		}
		// Round trip: the serialised form must parse, and its own
		// serialisation must be identical (canonicalisation reached a
		// fixed point after one step).
		out := doc.String()
		doc2, err := ParseDocumentString(out)
		if err != nil {
			t.Fatalf("serialised form rejected: %v\ninput:  %q\noutput: %q", err, text, out)
		}
		if out2 := doc2.String(); out2 != out {
			t.Fatalf("serialisation not a fixed point:\nfirst:  %q\nsecond: %q", out, out2)
		}
		// Copy must be deep and equal.
		if c := doc.Copy(); c.String() != out {
			t.Fatalf("copy differs:\norig: %q\ncopy: %q", out, c.String())
		}
	})
}
