package cdag

import (
	"fmt"

	"xqindep/internal/guard"
	"xqindep/internal/xquery"
)

// Env is the static environment Γ over CDAG sets.
type Env map[string]*Set

// Bind returns a copy of g with v bound to s.
func (g Env) Bind(v string, s *Set) Env {
	out := make(Env, len(g)+1)
	for k, val := range g {
		out[k] = val
	}
	out[v] = s
	return out
}

// RootEnv is Γ = {x ↦ ds}.
func (e *Engine) RootEnv() Env {
	return Env{xquery.RootVar: e.RootSet()}
}

// QueryChains is the CDAG form of the judgement Γ ⊢C q : (r; v; e).
type QueryChains struct {
	Ret  *Set
	Used *Set
	Elem *Set
}

func (e *Engine) emptyChains() QueryChains {
	return QueryChains{Ret: e.NewSet(), Used: e.NewSet(), Elem: e.NewSet()}
}

// Query infers the chain sets of q over CDAGs, mirroring Table 1.
// The (FOR) rule iterates bindings at endpoint granularity — the
// number of endpoints is polynomial in |d| and k, unlike the number of
// chains.
func (e *Engine) Query(g Env, q xquery.Query) QueryChains {
	e.budget.Tick()
	switch n := q.(type) {
	case xquery.Empty:
		return e.emptyChains()
	case xquery.StringLit:
		out := e.emptyChains()
		out.Elem.AddAll(e.stringChainSet())
		return out
	case xquery.Var:
		out := e.emptyChains()
		if b, ok := g[n.Name]; ok {
			out.Ret.AddAll(b)
		}
		return out
	case xquery.Step:
		return e.stepRule(g, n)
	case xquery.Sequence:
		l, r := e.Query(g, n.Left), e.Query(g, n.Right)
		return QueryChains{
			Ret:  e.Union(l.Ret, r.Ret),
			Used: e.Union(l.Used, r.Used),
			Elem: e.Union(l.Elem, r.Elem),
		}
	case xquery.If:
		c0, c1, c2 := e.Query(g, n.Cond), e.Query(g, n.Then), e.Query(g, n.Else)
		return QueryChains{
			Ret:  e.Union(c1.Ret, c2.Ret),
			Used: e.Union(c0.Used, c1.Used, c2.Used, c0.Ret),
			Elem: e.Union(c1.Elem, c2.Elem),
		}
	case xquery.For:
		return e.forRule(g, n)
	case xquery.Let:
		// The binding includes constructed items (see package infer's
		// (LET) comment).
		c1 := e.Query(g, n.Bind)
		c2 := e.Query(g.Bind(n.Var, e.Union(c1.Ret, c1.Elem)), n.Return)
		return QueryChains{
			Ret:  c2.Ret,
			Used: e.Union(c1.Ret, c1.Used, c2.Used),
			Elem: c2.Elem,
		}
	case xquery.Element:
		return e.elementRule(g, n)
	default:
		panic(&guard.InternalError{Value: fmt.Sprintf("cdag: unknown query node %T", q)})
	}
}

// stringChainSet is the element chain {S}.
func (e *Engine) stringChainSet() *Set {
	s := e.NewSet()
	str := e.C.StringSym()
	s.roots.Add(int(str))
	s.addEnd(0, str)
	return s
}

func (e *Engine) stepRule(g Env, n xquery.Step) QueryChains {
	out := e.emptyChains()
	ctx, ok := g[n.Var]
	if !ok {
		return out
	}
	res, productive := ctx.Step(n.Axis, n.Test)
	out.Ret = res
	if !n.Axis.IsForward() {
		// (STEPUH): productive context endpoints become used chains.
		used := ctx.withEnds(productive)
		out.Used = used
	}
	return out
}

// forRule implements (FOR). Two regimes keep the engine polynomial
// (the paper's CDAG processes each sub-expression once):
//
//   - When the body's returns provably extend the binding chain
//     (returnsExtendBinding — pure navigation, filters, conditionals
//     over them), the body is inferred once over the whole binding
//     set: binding chains are subsumed by the returns, per-binding
//     filtering cannot change the result, and the rules are additive.
//   - Otherwise the body is inferred per binding endpoint (their
//     number is polynomial), filtering unproductive iterations and
//     applying the semantic subsumption check.
func (e *Engine) forRule(g Env, n xquery.For) QueryChains {
	c1 := e.Query(g, n.In)
	out := e.emptyChains()
	out.Used.AddAll(c1.Used)
	// Bindings cover returned input nodes and constructed items alike.
	bindings := c1.Ret
	if !c1.Elem.IsEmpty() {
		bindings = e.Union(c1.Ret, c1.Elem)
	}
	if returnsExtendBinding(n.Return, n.Var) || navigational(n.Return, n.Var) {
		// Batch regimes. Extension bodies need no binding-used chains
		// at all. Navigational bodies (upward or horizontal steps, no
		// constructors, no conditionals) are processed set-wise like
		// the paper's single shared CDAG: (STEPUH) records the
		// productive context endpoints, which is exactly the (FOR)
		// used-chain filter at the engine's granularity. Backward
		// navigation then walks the merged cones of all bindings —
		// the same over-approximation the paper accepts for nodes
		// shared between chains of one expression.
		body := e.Query(g.Bind(n.Var, bindings), n.Return)
		out.Ret.AddAll(body.Ret)
		out.Used.AddAll(body.Used)
		out.Elem.AddAll(body.Elem)
		return out
	}
	single := bindings.EndCount() == 1
	for _, end := range bindings.Ends() {
		binding := bindings
		if !single {
			binding = bindings.subWithEnd(end)
		}
		body := e.Query(g.Bind(n.Var, binding), n.Return)
		if body.Ret.IsEmpty() && body.Elem.IsEmpty() {
			continue
		}
		out.Ret.AddAll(body.Ret)
		out.Elem.AddAll(body.Elem)
		out.Used.AddAll(body.Used)
		if !body.Elem.IsEmpty() || !body.Ret.allExtendNode(end) {
			out.Used.AddAll(binding)
		}
	}
	return out
}

// returnsExtendBinding reports whether every chain q can return
// extends the binding of v (and q constructs no elements): paths
// forward from v, the variable itself, conditionals and sequences over
// such, and nested for-loops that continue forward. For these bodies
// conflicts through the binding chain are subsumed by conflicts on the
// returns.
//
//xqvet:ignore budgetpoints structural recursion on the parsed AST, depth-bounded by guard's parser limits
func returnsExtendBinding(q xquery.Query, v string) bool {
	switch n := q.(type) {
	case xquery.Empty:
		return true
	case xquery.Var:
		return n.Name == v
	case xquery.Step:
		// Self, child, descendant and descendant-or-self results all
		// contain their context chain as a prefix (plain descendant is
		// STEPUH for used-chain purposes, but still extends).
		return n.Var == v && (n.Axis.IsForward() || n.Axis == xquery.Descendant)
	case xquery.Sequence:
		return returnsExtendBinding(n.Left, v) && returnsExtendBinding(n.Right, v)
	case xquery.If:
		// The condition may navigate anywhere (its chains become used,
		// which is handled by the (IF) rule); only the branches must
		// extend the binding.
		return returnsExtendBinding(n.Then, v) && returnsExtendBinding(n.Else, v)
	case xquery.For:
		return returnsExtendBinding(n.In, v) && extendsVar(n.Return, n.Var)
	default:
		return false
	}
}

// extendsVar is returnsExtendBinding for the inner variable of a
// nested for: the body must extend y, whose bindings already extend
// the outer binding.
//
//xqvet:ignore budgetpoints structural recursion on the parsed AST, depth-bounded by guard's parser limits
func extendsVar(q xquery.Query, y string) bool { return returnsExtendBinding(q, y) }

// navigational reports whether q is pure navigation from v: steps of
// any axis, nested for-loops over navigation, the variable itself, or
// sequences of those — but no element construction, strings, let or
// conditionals. Such bodies are processed set-wise: every used chain
// they need is produced by the (STEPUH) productivity filter inside
// Step, and their returns carry all remaining conflicts.
//
//xqvet:ignore budgetpoints structural recursion on the parsed AST, depth-bounded by guard's parser limits
func navigational(q xquery.Query, v string) bool {
	switch n := q.(type) {
	case xquery.Empty:
		return true
	case xquery.Var:
		return n.Name == v
	case xquery.Step:
		return n.Var == v
	case xquery.Sequence:
		return navigational(n.Left, v) && navigational(n.Right, v)
	case xquery.For:
		return navigational(n.In, v) && navigational(n.Return, n.Var)
	default:
		return false
	}
}

// distributesOverBinding reports whether update body u, run under a
// for-loop over v, distributes over v's bindings: u is a primitive
// (delete, rename, insert, replace) or a sequence of them, every
// target is exactly v (v itself or v/self::node()), and no source
// mentions v. Each primitive rule is then a union over the target's
// end nodes of a contribution that depends only on the node and the
// edges into it, so one inference over the union of the binding cones
// equals the union of the per-binding inferences. A target navigating
// from v is excluded: a binding end lying on another binding's chain
// would let the navigation reach through merged nodes that no single
// binding's cone contains.
//
//xqvet:ignore budgetpoints structural recursion on the parsed AST, depth-bounded by guard's parser limits
func distributesOverBinding(u xquery.Update, v string) bool {
	switch n := u.(type) {
	case xquery.USeq:
		return distributesOverBinding(n.Left, v) && distributesOverBinding(n.Right, v)
	case xquery.Delete:
		return isVar(n.Target, v)
	case xquery.Rename:
		return isVar(n.Target, v)
	case xquery.Insert:
		return isVar(n.Target, v) && !mentions(n.Source, v)
	case xquery.Replace:
		return isVar(n.Target, v) && !mentions(n.Source, v)
	default:
		return false
	}
}

// isVar reports whether q denotes exactly the binding of v: $v or
// $v/self::node().
func isVar(q xquery.Query, v string) bool {
	switch n := q.(type) {
	case xquery.Var:
		return n.Name == v
	case xquery.Step:
		return n.Var == v && n.Axis == xquery.Self && n.Test.Kind == xquery.NodeAny
	default:
		return false
	}
}

// mentions reports whether v occurs free in q.
func mentions(q xquery.Query, v string) bool {
	free := make(map[string]bool)
	xquery.FreeQueryVars(q, free)
	return free[v]
}

func (e *Engine) elementRule(g Env, n xquery.Element) QueryChains {
	inner := e.Query(g, n.Content)
	out := e.emptyChains()
	// e0 part 1: a.α.c' for each return endpoint α and its schema
	// extensions.
	elem := e.NewSet()
	tag := e.internSym(n.Tag)
	elem.roots.Add(int(tag))
	base := Node{0, tag}
	for _, end := range inner.Ret.Ends() {
		ext := e.suffixExtensions(end.Sym, e.MaxDepth)
		elem.graft(base, ext)
	}
	// e0 part 2: a.c for nested element chains.
	elem.graft(base, inner.Elem)
	// e0 part 3: bare a when the content contributes nothing.
	if inner.Ret.IsEmpty() && inner.Elem.IsEmpty() {
		elem.addEnd(0, tag)
	}
	out.Elem = elem
	// Used: r̄ ∪ v.
	out.Used = e.Union(inner.Ret.Extend(), inner.Used)
	return out
}
