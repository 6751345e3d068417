package cdag

import (
	"fmt"
	"reflect"
	"testing"

	"xqindep/internal/dtd"
	"xqindep/internal/rbench"
	"xqindep/internal/refcdag"
	"xqindep/internal/xmark"
	"xqindep/internal/xquery"
)

// TestDifferentialDenseVsReference runs the full XMark view × update
// matrix through both CDAG engines — this dense compiled-schema one
// and the retained map-based reference (internal/refcdag) — and
// demands bit-for-bit agreement: same verdict, same firing reasons,
// and byte-identical Dot renderings of every judgement component's
// DAG (which pins the chain sets too). The pairs run in parallel so the
// shared compiled artifact sees concurrent readers; `go test -race`
// turns that into a synchronization oracle too.
func TestDifferentialDenseVsReference(t *testing.T) {
	d := xmark.Schema()
	views, updates := xmark.Views(), xmark.Updates()
	if testing.Short() {
		// A quarter of the matrix still exercises every rule; the full
		// cross product runs in CI.
		views, updates = views[:(len(views)+1)/2], updates[:(len(updates)+1)/2]
	}
	for _, v := range views {
		for _, u := range updates {
			v, u := v, u
			t.Run(fmt.Sprintf("%s/%s", v.Name, u.Name), func(t *testing.T) {
				t.Parallel()
				assertEnginesAgree(t, d, v.AST, u.AST)
			})
		}
	}
}

// recursiveForUpdates are update for-loops over the R-benchmark's
// fully recursive schemas, where binding ends nest inside each other's
// chains (an end (d+1, t2) below an end (d, t2)). batched records
// which regime the dense engine takes: the set-wise one for bodies
// that act on the binding itself, per-end iteration otherwise. The
// per-end shapes are negative controls — a set-wise inference of them
// differs from per-end iteration on these schemas.
var recursiveForUpdates = []struct {
	text    string
	batched bool
}{
	{"for $x in //t2 return delete $x", true},
	{"for $x in //t2 return delete $x/self::node()", true},
	{"for $x in //t2 return rename $x as t1", true},
	{"for $x in //t1 return rename $x as fresh", true},
	{"for $x in //t2//t2 return rename $x as t3", true},
	{"for $x in //t2 return insert <new/> into $x", true},
	{"for $x in //t1/t2 return insert <new><t1/></new> as first into $x", true},
	{"for $x in //t2 return insert /t1/t2 as last into $x", true},
	{"for $x in //t2 return insert <new/> before $x", true},
	{"for $x in //t1//t2 return insert <new/> after $x", true},
	{"for $x in //t2 return replace $x with <t1/>", true},
	{"for $x in /t1 return replace $x with <t1><t2/></t1>", true},
	{"for $x in //t2 return (rename $x as t3, insert <new/> into $x)", true},
	{"for $x in //t1 return for $y in $x/t2 return delete $y", true},
	{"for $x in //t2 return insert <new/> as first into $x/t2", false},
	{"for $x in //t2 return (delete $x/t1, rename $x//t3 as t1)", false},
}

// TestDifferentialRecursiveSchemas is the dense-vs-reference
// differential over the R-benchmark schemas d1–d4 and update for-loops
// of both regimes: the set-wise inference must produce exactly the
// DAGs and change regions of the reference's per-end iteration.
func TestDifferentialRecursiveSchemas(t *testing.T) {
	views := []string{
		"//t2",
		"//t1/t3",
		"for $y in //t3 return $y/..",
		"/t1//new",
	}
	for i, u := range recursiveForUpdates {
		ast := xquery.MustParseUpdate(u.text)
		f, ok := xquery.NormalizeUpdate(ast).(xquery.UFor)
		if !ok {
			t.Fatalf("%q does not normalize to a for-loop", u.text)
		}
		if got := distributesOverBinding(f.Body, f.Var); got != u.batched {
			t.Errorf("%q: set-wise regime %v, want %v", u.text, got, u.batched)
		}
		for n := 1; n <= 4; n++ {
			d := rbench.SchemaN(n)
			for j, v := range views {
				q := xquery.MustParseQuery(v)
				t.Run(fmt.Sprintf("d%d/u%d/v%d", n, i, j), func(t *testing.T) {
					t.Parallel()
					assertEnginesAgree(t, d, q, ast)
				})
			}
		}
	}
}

// assertEnginesAgree runs the pair through both engines and demands
// the same verdict, reasons and k, byte-identical Dot renderings of
// every chain set and the same change-region marks.
func assertEnginesAgree(t *testing.T, d *dtd.DTD, q xquery.Query, u xquery.Update) {
	t.Helper()
	dense := Independence(d, q, u)
	ref := refcdag.Independence(d, q, u)

	if dense.Independent != ref.Independent {
		t.Fatalf("verdict: dense %v, reference %v", dense.Independent, ref.Independent)
	}
	if !reflect.DeepEqual(dense.Reasons, ref.Reasons) {
		t.Errorf("reasons: dense %v, reference %v", dense.Reasons, ref.Reasons)
	}
	if dense.K != ref.K {
		t.Errorf("k: dense %d, reference %d", dense.K, ref.K)
	}

	sets := []struct {
		name string
		dn   *Set
		rf   *refcdag.Set
	}{
		{"ret", dense.Query.Ret, ref.Query.Ret},
		{"used", dense.Query.Used, ref.Query.Used},
		{"elem", dense.Query.Elem, ref.Query.Elem},
		{"update", dense.Update.Full, ref.Update.Full},
	}
	for _, s := range sets {
		// The Dot rendering spells out the complete DAG — every node,
		// edge and endpoint — so byte equality is a full structural
		// check, and the chain sets (a pure function of that
		// structure) agree too. Materialising the chains themselves is
		// off the table: on recursive schemas their count is
		// exponential in the depth bound.
		if got, want := s.dn.Dot(s.name), s.rf.Dot(s.name); got != want {
			t.Errorf("%s dot:\ndense:\n%s\nreference:\n%s", s.name, got, want)
		}
	}

	// The change regions must mark the same nodes: every reference
	// mark is set densely and the counts match.
	eng := dense.Update.Full.eng
	marks := 0
	for n, on := range ref.Update.ChangeRegion {
		if !on {
			continue
		}
		marks++
		sym, ok := eng.lookupSym(n.Sym)
		if !ok {
			t.Errorf("change-region symbol %q unknown to the dense engine", n.Sym)
			continue
		}
		if !dense.Update.ChangeRegion.Has(Node{n.Depth, sym}) {
			t.Errorf("change region missing %d:%s", n.Depth, n.Sym)
		}
	}
	got := 0
	for _, bits := range dense.Update.ChangeRegion {
		got += bits.Count()
	}
	if got != marks {
		t.Errorf("change region size: dense %d, reference %d", got, marks)
	}
}

// TestSetWiseUpdateAllocs pins the set-wise for-loop regime: UN1
// binds about ninety nested bold ends at k = 4, and inferring its
// rename once per end allocates over 100 000 times where the single
// set-wise pass stays near 13 000. The bound fails deterministically
// if per-end iteration comes back for such bodies.
func TestSetWiseUpdateAllocs(t *testing.T) {
	c, err := dtd.Compile(xmark.Schema())
	if err != nil {
		t.Fatal(err)
	}
	un1, ok := xmark.UpdateByName("UN1")
	if !ok {
		t.Fatal("xmark update UN1 missing")
	}
	u := xquery.NormalizeUpdate(un1.AST)
	eng := NewEngineCompiled(c, 4, pairExtras(c.DTD(), nil, un1.AST))
	allocs := testing.AllocsPerRun(3, func() {
		eng.Update(eng.RootEnv(), u)
	})
	if allocs > 20000 {
		t.Errorf("UN1 update inference at k=4 allocates %.0f times, want at most 20000", allocs)
	}
}
