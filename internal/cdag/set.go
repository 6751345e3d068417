// Package cdag is the production chain-inference engine: it
// represents inferred chain sets as depth-indexed DAGs over
// (depth, type) nodes, the paper's CDAG (Section 6.1), making the
// finite analysis polynomial in the schema size and multiplicity k
// (Theorem 6.1).
//
// A Set stands for the set of chains spelled by its root-to-endpoint
// paths. Sharing a node per (depth, type) pair keeps the width bounded
// by the schema size; the price is that merging may introduce artifact
// paths, which can only make the independence analysis more
// conservative, never unsound. Where the paper separates chains of
// different sub-expressions with edge codes, this implementation gives
// every inferred set its own DAG, which isolates sub-expressions at
// least as strongly.
//
// The k-chain bound of the finite analysis (Section 5) is enforced by
// depth: a chain longer than k·|Σeff| must repeat some symbol more
// than k times (pigeonhole), so the DAG is truncated at that depth.
// The resulting universe is a superset of Ck_d, which preserves both
// soundness and completeness relative to the infinite analysis.
//
// This is the dense, compiled-schema implementation: symbols are
// interned dtd.SymID values from a dtd.Compiled artifact, adjacency is
// a bitset row per (depth, symbol), and the set algebra — union,
// intersection, pruning, prefix-conflict probing — runs as word-wise
// bitset operations. The retained map-based engine lives in
// internal/refcdag as the differential-testing reference.
package cdag

import (
	"sort"
	"strings"

	"xqindep/internal/bitset"
	"xqindep/internal/chain"
	"xqindep/internal/dtd"
	"xqindep/internal/guard"
	"xqindep/internal/xquery"
)

// Node identifies a CDAG node: an interned type symbol at a depth.
type Node struct {
	Depth int
	Sym   dtd.SymID
}

// Marks is a per-depth bitset marking of CDAG nodes — the dense
// replacement for map[Node]bool (productivity flags, change regions,
// endpoint overrides). The zero value is an empty marking.
type Marks []bitset.Set

// add marks (d, sym).
func (m *Marks) add(d int, sym dtd.SymID) {
	for len(*m) <= d {
		*m = append(*m, nil)
	}
	(*m)[d].Add(int(sym))
}

// or marks every bit of bits at depth d.
func (m *Marks) or(d int, bits bitset.Set) {
	for len(*m) <= d {
		*m = append(*m, nil)
	}
	(*m)[d].Or(bits)
}

// union merges t into m.
func (m *Marks) union(t Marks) {
	for d, bits := range t {
		if bits.Any() {
			m.or(d, bits)
		}
	}
}

// at returns the marked symbols at depth d (nil when none).
func (m Marks) at(d int) bitset.Set {
	if d < 0 || d >= len(m) {
		return nil
	}
	return m[d]
}

// Has reports whether n is marked.
func (m Marks) Has(n Node) bool { return m.at(n.Depth).Has(int(n.Sym)) }

// any reports whether anything is marked.
func (m Marks) any() bool {
	for _, bits := range m {
		if bits.Any() {
			return true
		}
	}
	return false
}

// clone returns an independent copy.
func (m Marks) clone() Marks {
	if m == nil {
		return nil
	}
	out := make(Marks, len(m))
	for d, bits := range m {
		out[d] = bits.Clone()
	}
	return out
}

// Set is a chain set in CDAG representation. The zero value is not
// usable; obtain Sets from an Engine. Successors of node (d, α) are
// the bits of out[d][α] at depth d+1; there is no predecessor index —
// backward steps scan one adjacency row, which for dense rows is
// cheaper than maintaining the inverse maps the map-based engine kept.
type Set struct {
	eng   *Engine
	roots bitset.Set     // symbols at depth 0
	out   [][]bitset.Set // out[d][α] = successor symbols at depth d+1
	ends  []bitset.Set   // ends[d] = endpoint symbols at depth d
}

// Engine holds the schema context shared by all sets of one analysis.
type Engine struct {
	D *dtd.DTD
	// C is the compiled schema artifact all sets index by.
	C *dtd.Compiled
	// K is the multiplicity the engine was built for.
	K int
	// MaxDepth bounds chain length; see the package comment.
	MaxDepth int
	// budget, when non-nil, bounds graph growth and wall-clock time;
	// the hot loops charge it cooperatively (see package guard).
	budget *guard.Budget

	// base is C.NumSyms(); IDs at or above it are extra symbols
	// (constructed tags outside Σ) interned per engine.
	base       int
	extraNames []string
	extraIdx   map[string]dtd.SymID
}

// WithBudget attaches a resource budget to the engine and returns it;
// a nil budget means unlimited.
func (e *Engine) WithBudget(b *guard.Budget) *Engine {
	e.budget = b
	return e
}

// NewEngine builds an engine for the DTD with the depth bound implied
// by multiplicity k and the number of extra tags constructed by the
// analysed expressions. The schema is compiled through the shared
// compilation cache; a schema beyond the compiled-symbol limit aborts
// via guard (recover with guard.Recover), degrading the analysis
// ladder to the non-compiled methods.
//
// The bound is #nonrecursive + extraTags + k·#recursive + 2: a
// non-recursive type can never occur twice on a chain (a repetition
// would close a ⇒d cycle through it), recursive types occur at most k
// times on a k-chain, and constructed tags and the string type occur
// at most once per junction. Any longer chain is not a k-chain, so
// truncating there preserves both soundness and completeness of the
// finite analysis.
func NewEngine(d *dtd.DTD, k int, extraTags int) *Engine {
	c, err := dtd.Compile(d)
	if err != nil {
		guard.Abort(err)
	}
	return NewEngineCompiled(c, k, extraTags)
}

// NewEngineCompiled is NewEngine over an already-compiled schema; use
// it on hot serving paths where the artifact is resolved once per
// request batch.
func NewEngineCompiled(c *dtd.Compiled, k int, extraTags int) *Engine {
	if k < 1 {
		k = 1
	}
	rec := c.RecursiveCount()
	nonrec := c.DTD().Size() - rec
	return &Engine{
		D:        c.DTD(),
		C:        c,
		K:        k,
		MaxDepth: nonrec + extraTags + k*rec + 2,
		base:     c.NumSyms(),
	}
}

// total is the size of the engine's symbol universe, extras included.
func (e *Engine) total() int { return e.base + len(e.extraNames) }

// newMarks returns a Marks with the given number of depth rows, each
// pre-sized to the engine's symbol universe and all carved out of one
// backing array: two allocations for the whole sweep, and no row ever
// grows again. The conflict probes build several of these per check,
// so incremental row growth would dominate their allocation profile.
func (e *Engine) newMarks(depths int) Marks {
	if depths <= 0 {
		return nil
	}
	words := (e.total() + 63) / 64
	backing := make(bitset.Set, depths*words)
	m := make(Marks, depths)
	for d := range m {
		m[d] = backing[d*words : (d+1)*words : (d+1)*words]
	}
	return m
}

// symName resolves an interned ID to its type name.
func (e *Engine) symName(s dtd.SymID) string {
	if int(s) < e.base {
		return e.C.NameOf(s)
	}
	return e.extraNames[int(s)-e.base]
}

// lookupSym resolves a name without interning.
func (e *Engine) lookupSym(name string) (dtd.SymID, bool) {
	if s, ok := e.C.SymOf(name); ok {
		return s, true
	}
	s, ok := e.extraIdx[name]
	return s, ok
}

// internSym resolves a name, interning it as an extra symbol when it
// lies outside Σ (a constructed tag or rename target).
func (e *Engine) internSym(name string) dtd.SymID {
	if s, ok := e.lookupSym(name); ok {
		return s
	}
	if e.total() >= int(^dtd.SymID(0)) {
		guard.Abort(&guard.LimitError{Resource: "symbols", Limit: int(^dtd.SymID(0))})
	}
	s := dtd.SymID(e.total())
	if e.extraIdx == nil {
		e.extraIdx = make(map[string]dtd.SymID)
	}
	e.extraIdx[name] = s
	e.extraNames = append(e.extraNames, name)
	return s
}

// childSet returns the schema successor bitset of s; extras and the
// string type have no children.
func (e *Engine) childSet(s dtd.SymID) bitset.Set {
	if int(s) < e.base {
		return e.C.ChildSet(s)
	}
	return nil
}

// childSyms returns the schema child list of s.
func (e *Engine) childSyms(s dtd.SymID) []dtd.SymID {
	if int(s) < e.base {
		return e.C.Children(s)
	}
	return nil
}

// testMask returns the bitset of symbols passing the node test over
// the engine's current universe. One mask evaluation turns per-node
// test checks into word-wise intersections.
func (e *Engine) testMask(test xquery.NodeTest) bitset.Set {
	str := int(e.C.StringSym())
	m := bitset.New(e.total())
	switch test.Kind {
	case xquery.NodeAny:
		for i := 0; i < e.total(); i++ {
			m.Add(i)
		}
	case xquery.TextTest:
		m.Add(str)
	case xquery.WildcardTest:
		for i := 0; i < e.total(); i++ {
			m.Add(i)
		}
		m.Remove(str)
	case xquery.TagTest:
		if ls := e.C.LabelSyms(test.Tag); ls != nil {
			m.Or(ls)
		}
		// µ⁻¹ may include the string type (its label is itself);
		// node tests never select text nodes by tag.
		m.Remove(str)
		for i, name := range e.extraNames {
			if name == test.Tag {
				m.Add(e.base + i)
			}
		}
	}
	return m
}

// NewSet returns an empty set.
func (e *Engine) NewSet() *Set { return &Set{eng: e} }

// outRow returns the adjacency row at depth d, grown to the current
// symbol universe.
func (s *Set) outRow(d int) []bitset.Set {
	for len(s.out) <= d {
		s.out = append(s.out, nil)
	}
	if n := s.eng.total(); len(s.out[d]) < n {
		row := make([]bitset.Set, n)
		copy(row, s.out[d])
		s.out[d] = row
	}
	return s.out[d]
}

// outAt returns the successor bitset of (d, from); nil when absent.
func (s *Set) outAt(d int, from dtd.SymID) bitset.Set {
	if d < 0 || d >= len(s.out) || int(from) >= len(s.out[d]) {
		return nil
	}
	return s.out[d][from]
}

// addEdge inserts (d, from) → (d+1, to). Every insertion charges the
// engine budget: edge growth is the engine's unit of work, so a
// runaway analysis aborts here long before exhausting memory.
func (s *Set) addEdge(d int, from, to dtd.SymID) {
	s.eng.budget.AddNodes(1)
	s.outRow(d)[from].Add(int(to))
}

// mergeRow unions src into the successors of (d, from), charging the
// budget one unit per source edge — the same rate addEdge charges the
// map-based engine per insertion, kept so budget-limit behaviour is
// comparable across the ladder.
func (s *Set) mergeRow(d int, from dtd.SymID, src bitset.Set) {
	s.eng.budget.AddNodes(src.Count())
	s.outRow(d)[from].Or(src)
}

// hasEdge reports the presence of (d, from) → (d+1, to).
func (s *Set) hasEdge(d int, from, to dtd.SymID) bool {
	return s.outAt(d, from).Has(int(to))
}

// endsAt returns the endpoint symbols at depth d (nil when none).
func (s *Set) endsAt(d int) bitset.Set {
	if d < 0 || d >= len(s.ends) {
		return nil
	}
	return s.ends[d]
}

// addEnd marks (d, sym) as an endpoint.
func (s *Set) addEnd(d int, sym dtd.SymID) {
	for len(s.ends) <= d {
		s.ends = append(s.ends, nil)
	}
	s.ends[d].Add(int(sym))
}

// endsOr marks every bit of bits as endpoints at depth d.
func (s *Set) endsOr(d int, bits bitset.Set) {
	for len(s.ends) <= d {
		s.ends = append(s.ends, nil)
	}
	s.ends[d].Or(bits)
}

// isEnd reports whether (d, sym) is an endpoint.
func (s *Set) isEnd(d int, sym dtd.SymID) bool { return s.endsAt(d).Has(int(sym)) }

// predBits returns the predecessor symbols of n, scanning the
// adjacency row above it.
func (s *Set) predBits(n Node) bitset.Set {
	return s.predsOfBit(n.Depth, n.Sym)
}

func (s *Set) predsOfBit(d int, sym dtd.SymID) bitset.Set {
	if d <= 0 || d-1 >= len(s.out) {
		return nil
	}
	var out bitset.Set
	for from, bits := range s.out[d-1] {
		if bits.Has(int(sym)) {
			out.Add(from)
		}
	}
	return out
}

// predsOfSet returns the symbols at depth d-1 with an edge into any
// target symbol at depth d.
func (s *Set) predsOfSet(d int, targets bitset.Set) bitset.Set {
	if d <= 0 || d-1 >= len(s.out) || !targets.Any() {
		return nil
	}
	var out bitset.Set
	for from, bits := range s.out[d-1] {
		if bits.Intersects(targets) {
			out.Add(from)
		}
	}
	return out
}

// RootSet returns the set holding the single chain {sd}.
func (e *Engine) RootSet() *Set {
	s := e.NewSet()
	start := e.C.Start()
	s.roots.Add(int(start))
	s.addEnd(0, start)
	return s
}

// SingletonSet returns the set holding exactly the given chain.
func (e *Engine) SingletonSet(c chain.Chain) *Set {
	s := e.NewSet()
	if c.IsEmpty() {
		return s
	}
	syms := make([]dtd.SymID, len(c))
	for i, name := range c {
		syms[i] = e.internSym(name)
	}
	s.roots.Add(int(syms[0]))
	for i := 0; i+1 < len(syms); i++ {
		s.addEdge(i, syms[i], syms[i+1])
	}
	s.addEnd(len(syms)-1, syms[len(syms)-1])
	return s
}

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	out := s.eng.NewSet()
	out.AddAll(s)
	return out
}

// IsEmpty reports whether the set holds no chains.
func (s *Set) IsEmpty() bool {
	for _, bits := range s.ends {
		if bits.Any() {
			return false
		}
	}
	return true
}

// EndCount returns the number of endpoint nodes (not chains — several
// chains may share an endpoint).
func (s *Set) EndCount() int {
	n := 0
	for _, bits := range s.ends {
		n += bits.Count()
	}
	return n
}

// endNodes lists the endpoints in depth order (symbol-ID order within
// a depth) without the name sort Ends performs.
func (s *Set) endNodes() []Node {
	var out []Node
	for d, bits := range s.ends {
		bits.ForEach(func(i int) {
			out = append(out, Node{d, dtd.SymID(i)})
		})
	}
	return out
}

// Ends returns the endpoints in deterministic order: by depth, then by
// type name.
func (s *Set) Ends() []Node {
	out := s.endNodes()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Depth != out[j].Depth {
			return out[i].Depth < out[j].Depth
		}
		return s.eng.symName(out[i].Sym) < s.eng.symName(out[j].Sym)
	})
	return out
}

// EndpointParent describes one endpoint of a set together with the
// parent symbols of its incoming edges; IsRoot marks endpoints at
// depth 0 (document-root chains).
type EndpointParent struct {
	Sym     string
	Parents []string
	IsRoot  bool
}

// EndpointParents lists every endpoint with its possible parent
// symbols, the information schema-preservation checks need.
func (s *Set) EndpointParents() []EndpointParent {
	var out []EndpointParent
	for _, n := range s.Ends() {
		ep := EndpointParent{Sym: s.eng.symName(n.Sym), IsRoot: n.Depth == 0}
		s.predBits(n).ForEach(func(p int) {
			ep.Parents = append(ep.Parents, s.eng.symName(dtd.SymID(p)))
		})
		sort.Strings(ep.Parents)
		out = append(out, ep)
	}
	return out
}

// AddAll unions t into s (both must come from the same engine).
func (s *Set) AddAll(t *Set) {
	if t == nil {
		return
	}
	s.roots.Or(t.roots)
	for d, row := range t.out {
		for from, bits := range row {
			if bits.Any() {
				s.mergeRow(d, dtd.SymID(from), bits)
			}
		}
	}
	for d, bits := range t.ends {
		if bits.Any() {
			s.endsOr(d, bits)
		}
	}
}

// Union returns a fresh union of the operands.
func (e *Engine) Union(sets ...*Set) *Set {
	out := e.NewSet()
	for _, s := range sets {
		out.AddAll(s)
	}
	return out
}

// withEnds returns a copy of s's graph with the given endpoints,
// pruned to the edges that spell its chains.
func (s *Set) withEnds(ends Marks) *Set {
	out := s.Clone()
	out.ends = []bitset.Set(ends)
	return out.prune()
}

// prune returns the sub-DAG of s containing exactly the edges on some
// root→endpoint path. This plays the role of the paper's edge codes:
// growth performed while exploring one step must not become spellable
// context for the next step or for backward navigation. Both closures
// run level-wise over whole bitset rows rather than node-at-a-time.
func (s *Set) prune() *Set {
	depths := len(s.ends)
	if d := len(s.out) + 1; d > depths {
		depths = d
	}
	if depths == 0 {
		depths = 1
	}
	// Forward closure from the roots.
	fwd := make([]bitset.Set, depths)
	fwd[0] = s.roots.Clone()
	for d := 0; d+1 < depths; d++ {
		s.eng.budget.Tick()
		var next bitset.Set
		if d < len(s.out) {
			for from, bits := range s.out[d] {
				if fwd[d].Has(from) && bits.Any() {
					next.Or(bits)
				}
			}
		}
		fwd[d+1] = next
	}
	// Backward closure from the forward-reachable endpoints.
	back := make([]bitset.Set, depths)
	for d := depths - 1; d >= 0; d-- {
		s.eng.budget.Tick()
		var b bitset.Set
		b.Or(s.endsAt(d).And(fwd[d]))
		if d+1 < depths && back[d+1].Any() {
			p := s.predsOfSet(d+1, back[d+1])
			p.AndWith(fwd[d])
			b.Or(p)
		}
		back[d] = b
	}
	out := s.eng.NewSet()
	out.roots = bitset.Set(s.roots.And(back[0]))
	for d := 0; d < len(s.out) && d+1 < depths; d++ {
		keep := fwd[d].And(back[d])
		if !keep.Any() {
			continue
		}
		row := s.out[d]
		keep.ForEach(func(from int) {
			if int(from) >= len(row) {
				return
			}
			kept := row[from].And(back[d+1])
			if kept.Any() {
				out.mergeRow(d, dtd.SymID(from), kept)
			}
		})
	}
	for d := range s.ends {
		kept := s.ends[d].And(fwd[d])
		if kept.Any() {
			out.endsOr(d, kept)
		}
	}
	return out
}

// subWithEnd returns the backward cone of a single endpoint: exactly
// the edges on root→n paths, with n as the only endpoint. It is the
// per-binding view of FOR iteration; extracting the cone directly is
// much cheaper than cloning and pruning the whole DAG when the parent
// set has many endpoints.
func (s *Set) subWithEnd(n Node) *Set {
	ends := make([]bitset.Set, n.Depth+1)
	ends[n.Depth].Add(int(n.Sym))
	return s.backCone(ends)
}

// backCone returns the backward cone of the given endpoints (ends[d]
// holds those at depth d; at least one row): exactly the edges on
// paths into them, with them as the only endpoints.
// Backward reachability is a union over its sources, so the cone of
// several endpoints is the union of their subWithEnd cones — which is
// what lets a set-wise (FOR) iteration stand in for a per-end one.
func (s *Set) backCone(ends []bitset.Set) *Set {
	out := s.eng.NewSet()
	cone := make([]bitset.Set, len(ends))
	for d := len(ends) - 1; d >= 0; d-- {
		if ends[d].Any() {
			out.endsOr(d, ends[d])
			cone[d].Or(ends[d])
		}
		if d == 0 {
			break
		}
		s.eng.budget.Tick()
		if d-1 >= len(s.out) {
			continue
		}
		for from, bits := range s.out[d-1] {
			kept := bits.And(cone[d])
			if kept.Any() {
				cone[d-1].Add(from)
				out.mergeRow(d-1, dtd.SymID(from), kept)
			}
		}
	}
	out.roots = bitset.Set(s.roots.And(cone[0]))
	return out
}

// Step applies one XPath step (axis + node test) to the set,
// implementing AC/TC over the DAG. It returns the result set and, for
// each input endpoint, whether the step produced anything from it (the
// (STEPUH) used-chain filter).
func (s *Set) Step(axis xquery.Axis, test xquery.NodeTest) (*Set, Marks) {
	if axis == xquery.Descendant || axis == xquery.DescendantOrSelf {
		return s.descendantStep(axis, test)
	}
	out := s.Clone()
	out.ends = nil
	mask := s.eng.testMask(test)
	var productive Marks
	for _, end := range s.endNodes() {
		var results []Node
		switch axis {
		case xquery.Self:
			results = []Node{end}
		case xquery.Child:
			results = out.growChildren(end)
		case xquery.Parent:
			s.predBits(end).ForEach(func(p int) {
				results = append(results, Node{end.Depth - 1, dtd.SymID(p)})
			})
		case xquery.Ancestor:
			results = s.properAncestors(end)
		case xquery.AncestorOrSelf:
			results = append(s.properAncestors(end), end)
		case xquery.PrecedingSibling:
			results = out.growSiblings(s, end, true)
		case xquery.FollowingSibling:
			results = out.growSiblings(s, end, false)
		default:
			panic(&guard.InternalError{Value: "cdag: unknown axis"})
		}
		any := false
		for _, n := range results {
			if mask.Has(int(n.Sym)) {
				out.addEnd(n.Depth, n.Sym)
				any = true
			}
		}
		if any {
			productive.add(end.Depth, end.Sym)
		}
	}
	return out.prune(), productive
}

// descendantStep handles descendant and descendant-or-self for all
// endpoints in one ascending sweep: since ⇒d edges always step one
// depth down, every (depth, symbol) pair is expanded exactly once with
// one bitset union of its schema successors. Per-endpoint
// productivity — needed by (STEPUH) for plain descendant — is
// recovered from a single descending backward closure of the passing
// nodes.
func (s *Set) descendantStep(axis xquery.Axis, test xquery.NodeTest) (*Set, Marks) {
	out := s.Clone()
	out.ends = nil
	mask := s.eng.testMask(test)

	// Forward closure below every endpoint, shared.
	var active, reached Marks
	for d, bits := range s.ends {
		if bits.Any() {
			active.or(d, bits)
		}
	}
	for d := 0; d < len(active) && d < s.eng.MaxDepth; d++ {
		bits := active.at(d)
		if !bits.Any() {
			continue
		}
		s.eng.budget.Tick()
		var kids bitset.Set
		bits.ForEach(func(i int) {
			cs := s.eng.childSet(dtd.SymID(i))
			if !cs.Any() {
				return
			}
			s.eng.budget.AddNodes(cs.Count())
			out.outRow(d)[i].Or(cs)
			kids.Or(cs)
		})
		if kids.Any() {
			reached.or(d+1, kids)
			active.or(d+1, kids)
		}
	}

	// Results: passing reached nodes, plus the endpoints themselves
	// for descendant-or-self.
	passing := make(Marks, len(reached))
	for d, bits := range reached {
		p := bits.And(mask)
		if p.Any() {
			passing[d] = bitset.Set(p)
			out.endsOr(d, p)
		}
	}
	if axis == xquery.DescendantOrSelf {
		for d, bits := range s.ends {
			p := bits.And(mask)
			if p.Any() {
				out.endsOr(d, p)
			}
		}
	}

	// Productivity: an endpoint is productive when a passing node is
	// forward-reachable (strictly below for descendant; or itself for
	// descendant-or-self). hasBelow = backward closure of passing.
	hasBelow := passing.clone()
	for d := len(hasBelow) - 1; d > 0; d-- {
		if !hasBelow.at(d).Any() {
			continue
		}
		s.eng.budget.Tick()
		p := out.predsOfSet(d, hasBelow.at(d))
		if p.Any() {
			hasBelow.or(d-1, p)
		}
	}
	var productive Marks
	for d, bits := range s.ends {
		below := hasBelow.at(d + 1)
		bits.ForEach(func(i int) {
			sym := dtd.SymID(i)
			kidsBelow := out.outAt(d, sym).Intersects(below)
			switch {
			case axis == xquery.DescendantOrSelf && (mask.Has(i) || kidsBelow):
				productive.add(d, sym)
			case axis == xquery.Descendant && kidsBelow:
				productive.add(d, sym)
			}
		})
	}
	return out.prune(), productive
}

// growChildren adds schema child edges below n and returns the child
// nodes.
func (s *Set) growChildren(n Node) []Node {
	if n.Depth+1 > s.eng.MaxDepth {
		return nil
	}
	kids := s.eng.childSyms(n.Sym)
	out := make([]Node, 0, len(kids))
	for _, beta := range kids {
		s.addEdge(n.Depth, n.Sym, beta)
		out = append(out, Node{n.Depth + 1, beta})
	}
	return out
}

// properAncestors walks s's own edges upward from n and returns every
// node on a path from a root to n, excluding n.
func (s *Set) properAncestors(n Node) []Node {
	var out []Node
	cur := s.predBits(n)
	for d := n.Depth - 1; d >= 0 && cur.Any(); d-- {
		s.eng.budget.Tick()
		cur.ForEach(func(i int) {
			out = append(out, Node{d, dtd.SymID(i)})
		})
		cur = s.predsOfSet(d, cur)
	}
	return out
}

// growSiblings adds sibling nodes of endpoint end: for each parent
// node reachable in the context set, the types ordered before/after
// end's type in that parent's content model (<r from the compiled
// sibling tables).
func (s *Set) growSiblings(ctx *Set, end Node, preceding bool) []Node {
	if end.Depth == 0 || int(end.Sym) >= s.eng.base {
		return nil
	}
	var out []Node
	ctx.predBits(end).ForEach(func(pi int) {
		if pi >= s.eng.base {
			return
		}
		p := dtd.SymID(pi)
		var sibs bitset.Set
		if preceding {
			sibs = s.eng.C.PrecedingSiblings(p, end.Sym)
		} else {
			sibs = s.eng.C.FollowingSiblings(p, end.Sym)
		}
		sibs.ForEach(func(bi int) {
			beta := dtd.SymID(bi)
			s.addEdge(end.Depth-1, p, beta)
			out = append(out, Node{end.Depth, beta})
		})
	})
	return out
}

// allExtendNode reports whether every chain of s has the chain(s)
// ending at n as a prefix: every endpoint lies at depth ≥ n.Depth and
// every backward path from an endpoint passes through n. Since each
// root→end path crosses each depth exactly once, it suffices that n is
// the only depth-n symbol backward-reachable from the endpoints.
func (s *Set) allExtendNode(n Node) bool {
	anyEnd := false
	var seen Marks
	for d, bits := range s.ends {
		if !bits.Any() {
			continue
		}
		if d < n.Depth {
			return false
		}
		seen.or(d, bits)
		anyEnd = true
	}
	if !anyEnd {
		return true
	}
	for d := len(seen) - 1; d > n.Depth; d-- {
		if !seen.at(d).Any() {
			continue
		}
		s.eng.budget.Tick()
		p := s.predsOfSet(d, seen.at(d))
		if p.Any() {
			seen.or(d-1, p)
		}
	}
	ok := true
	seen.at(n.Depth).ForEach(func(i int) {
		if dtd.SymID(i) != n.Sym {
			ok = false
		}
	})
	return ok
}

// Extend returns the set τ̄ = { c.c' | c ∈ s }: s plus the forward
// schema closure below every endpoint, all of it marked as endpoints.
func (s *Set) Extend() *Set {
	out := s.Clone()
	for d := 0; d < len(out.ends) && d < s.eng.MaxDepth; d++ {
		bits := out.ends[d]
		if !bits.Any() {
			continue
		}
		s.eng.budget.Tick()
		var kids bitset.Set
		bits.ForEach(func(i int) {
			cs := s.eng.childSet(dtd.SymID(i))
			if !cs.Any() {
				return
			}
			s.eng.budget.AddNodes(cs.Count())
			out.outRow(d)[i].Or(cs)
			kids.Or(cs)
		})
		if kids.Any() {
			out.endsOr(d+1, kids)
		}
	}
	return out
}

// graft attaches t under endpoint base: t's roots become children of
// base, every t edge is copied shifted by base.Depth+1, and t's
// endpoints become endpoints of the result (added in place to s).
// Nodes beyond MaxDepth are dropped — such chains exceed every k-chain
// length. Both sets must come from the same engine so interned IDs
// agree.
func (s *Set) graft(base Node, t *Set) {
	off := base.Depth + 1
	if off > s.eng.MaxDepth {
		return
	}
	t.roots.ForEach(func(r int) {
		s.addEdge(base.Depth, base.Sym, dtd.SymID(r))
	})
	for d, row := range t.out {
		if off+d+1 > s.eng.MaxDepth {
			continue
		}
		for from, bits := range row {
			if bits.Any() {
				s.mergeRow(off+d, dtd.SymID(from), bits)
			}
		}
	}
	for d, bits := range t.ends {
		if off+d <= s.eng.MaxDepth && bits.Any() {
			s.endsOr(off+d, bits)
		}
	}
}

// Rebase returns a set whose chains are tag.c for every chain c of s —
// the element-chain composition a.c of the (ELT) rule.
func (s *Set) Rebase(tag string) *Set {
	out := s.eng.NewSet()
	sym := s.eng.internSym(tag)
	out.roots.Add(int(sym))
	out.graft(Node{Depth: 0, Sym: sym}, s)
	return out
}

// SuffixExtensions returns the element-style set
// { sym.c” | c” schema extension of sym } rooted at depth 0 — the
// suffix α.c' used by (ELT) and by copied-source update chains.
func (e *Engine) SuffixExtensions(sym string, budget int) *Set {
	return e.suffixExtensions(e.internSym(sym), budget)
}

// suffixExtensions is SuffixExtensions over an interned symbol. The
// whole closure is one ascending sweep of the endpoint rows: every
// reached node is an endpoint, so the frontier at depth d is exactly
// ends[d].
func (e *Engine) suffixExtensions(sym dtd.SymID, budget int) *Set {
	out := e.NewSet()
	out.roots.Add(int(sym))
	out.addEnd(0, sym)
	if budget > e.MaxDepth {
		budget = e.MaxDepth
	}
	for d := 0; d < len(out.ends) && d < budget; d++ {
		bits := out.ends[d]
		if !bits.Any() {
			continue
		}
		var kids bitset.Set
		bits.ForEach(func(i int) {
			cs := e.childSet(dtd.SymID(i))
			if !cs.Any() {
				return
			}
			e.budget.AddNodes(cs.Count())
			out.outRow(d)[i].Or(cs)
			kids.Or(cs)
		})
		if kids.Any() {
			out.endsOr(d+1, kids)
		}
	}
	return out
}

// Chains enumerates the chain set spelled by the DAG, up to limit
// chains (0 = no limit). Intended for tests and diagnostics; the
// enumeration is exponential in general.
func (s *Set) Chains(limit int) []chain.Chain {
	var out []chain.Chain
	var path []string
	var rec func(d int, sym dtd.SymID)
	rec = func(d int, sym dtd.SymID) {
		if limit > 0 && len(out) >= limit {
			return
		}
		s.eng.budget.Tick()
		path = append(path, s.eng.symName(sym))
		if s.isEnd(d, sym) {
			out = append(out, chain.New(append([]string(nil), path...)...))
		}
		s.outAt(d, sym).ForEach(func(to int) {
			rec(d+1, dtd.SymID(to))
		})
		path = path[:len(path)-1]
	}
	var roots []dtd.SymID
	s.roots.ForEach(func(r int) { roots = append(roots, dtd.SymID(r)) })
	sort.Slice(roots, func(i, j int) bool {
		return s.eng.symName(roots[i]) < s.eng.symName(roots[j])
	})
	for _, r := range roots {
		rec(0, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Strings renders the enumerated chains; for tests.
func (s *Set) Strings(limit int) []string {
	cs := s.Chains(limit)
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.String()
	}
	return out
}

// String summarises the DAG contents (up to 16 chains).
func (s *Set) String() string {
	var b strings.Builder
	b.WriteString("cdag{")
	for i, e := range s.Strings(16) {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e)
	}
	b.WriteString("}")
	return b.String()
}
