package cdag

import (
	"fmt"

	"xqindep/internal/dtd"
	"xqindep/internal/guard"
	"xqindep/internal/xquery"
)

// UpdateSet is the CDAG form of an inferred update-chain set. Full
// chains c.c' are the root→endpoint paths of Full; ChangeRegion marks
// the nodes strictly below a target prefix (the change branches),
// which is what the used-chain conflict check needs.
type UpdateSet struct {
	Full         *Set
	ChangeRegion Marks
}

func (e *Engine) newUpdateSet() *UpdateSet {
	return &UpdateSet{Full: e.NewSet()}
}

// AddAll unions t into u.
func (u *UpdateSet) AddAll(t *UpdateSet) {
	u.Full.AddAll(t.Full)
	u.ChangeRegion.union(t.ChangeRegion)
}

// IsEmpty reports whether no update chains were inferred.
func (u *UpdateSet) IsEmpty() bool { return u.Full.IsEmpty() }

// Update infers the update-chain DAG of u under Γ, mirroring Table 2
// (with the same (REPLACE) correction as package infer).
//
// A for-loop is inferred once over its whole binding set when its body
// distributes over the binding (distributesOverBinding: primitives
// whose target is the loop variable itself, sources that do not
// mention it); the union of the per-end cones stands in for the
// separate bindings, with the same result. Every other body runs once
// per binding endpoint, on that endpoint's backward cone, as the
// reference engine (internal/refcdag) does for every body.
func (e *Engine) Update(g Env, u xquery.Update) *UpdateSet {
	e.budget.Tick()
	switch n := u.(type) {
	case xquery.UEmpty:
		return e.newUpdateSet()
	case xquery.USeq:
		out := e.Update(g, n.Left)
		out.AddAll(e.Update(g, n.Right))
		return out
	case xquery.UIf:
		out := e.Update(g, n.Then)
		out.AddAll(e.Update(g, n.Else))
		return out
	case xquery.UFor:
		c1 := e.Query(g, n.In)
		bindings := c1.Ret
		if !c1.Elem.IsEmpty() {
			bindings = e.Union(c1.Ret, c1.Elem)
		}
		if bindings.IsEmpty() {
			// No iteration: the body must not run even once, or it
			// would intern its constructed and rename tags.
			return e.newUpdateSet()
		}
		if distributesOverBinding(n.Body, n.Var) {
			return e.Update(g.Bind(n.Var, bindings.backCone(bindings.ends)), n.Body)
		}
		out := e.newUpdateSet()
		for _, end := range bindings.Ends() {
			out.AddAll(e.Update(g.Bind(n.Var, bindings.subWithEnd(end)), n.Body))
		}
		return out
	case xquery.ULet:
		c1 := e.Query(g, n.Bind)
		return e.Update(g.Bind(n.Var, e.Union(c1.Ret, c1.Elem)), n.Body)
	case xquery.Delete:
		// Full chains are the target chains; the change suffix is the
		// final symbol.
		r0 := e.Query(g, n.Target).Ret
		out := e.newUpdateSet()
		out.Full.AddAll(r0)
		for d, bits := range r0.ends {
			if bits.Any() {
				out.ChangeRegion.or(d, bits)
			}
		}
		return out
	case xquery.Rename:
		r0 := e.Query(g, n.Target).Ret
		as := e.internSym(n.As)
		out := e.newUpdateSet()
		out.Full.AddAll(r0)
		for _, end := range r0.endNodes() {
			out.ChangeRegion.add(end.Depth, end.Sym)
			if end.Depth == 0 {
				// Renaming the root: the new name becomes a root chain.
				out.Full.roots.Add(int(as))
				out.Full.addEnd(0, as)
				out.ChangeRegion.add(0, as)
				continue
			}
			preds := r0.predBits(end)
			if !preds.Any() {
				continue
			}
			preds.ForEach(func(p int) {
				out.Full.addEdge(end.Depth-1, dtd.SymID(p), as)
			})
			out.Full.addEnd(end.Depth, as)
			out.ChangeRegion.add(end.Depth, as)
		}
		return out
	case xquery.Insert:
		src := e.Query(g, n.Source)
		r0 := e.Query(g, n.Target).Ret
		out := e.newUpdateSet()
		out.Full.AddAll(r0)
		out.Full.ends = nil // targets are prefixes, not ends
		for _, end := range r0.endNodes() {
			if n.Pos.IsInto() {
				e.graftSource(out, end, src)
				continue
			}
			// before/after: the change happens under the target's
			// parent (INSERT-2); inserting beside the root is
			// impossible.
			depth := end.Depth
			r0.predBits(end).ForEach(func(p int) {
				e.graftSource(out, Node{depth - 1, dtd.SymID(p)}, src)
			})
		}
		return out
	case xquery.Replace:
		src := e.Query(g, n.Source)
		r0 := e.Query(g, n.Target).Ret
		out := e.newUpdateSet()
		out.Full.AddAll(r0)
		out.Full.ends = nil
		for _, end := range r0.endNodes() {
			// Removal of the target node: full chain = target chain.
			out.Full.addEnd(end.Depth, end.Sym)
			out.ChangeRegion.add(end.Depth, end.Sym)
			// Insertion of the source in the target's place.
			depth := end.Depth
			r0.predBits(end).ForEach(func(p int) {
				e.graftSource(out, Node{depth - 1, dtd.SymID(p)}, src)
			})
			if end.Depth == 0 {
				// Replacing the root: the source chains become
				// root-level change chains.
				e.graftAtRoots(out, src.Elem)
				for _, sEnd := range src.Ret.Ends() {
					e.graftAtRoots(out, e.suffixExtensions(sEnd.Sym, e.MaxDepth))
				}
			}
		}
		return out
	default:
		panic(&guard.InternalError{Value: fmt.Sprintf("cdag: unknown update node %T", u)})
	}
}

// graftSource attaches the source chains (constructed elements and
// copied input subtrees) below the prefix node, marking the grafted
// branch as change region and its leaves as full-chain ends.
func (e *Engine) graftSource(out *UpdateSet, prefix Node, src QueryChains) {
	e.graftMarked(out, prefix, src.Elem)
	for _, end := range src.Ret.Ends() {
		ext := e.suffixExtensions(end.Sym, e.MaxDepth)
		e.graftMarked(out, prefix, ext)
	}
}

// graftMarked is Set.graft plus change-region bookkeeping.
func (e *Engine) graftMarked(out *UpdateSet, base Node, t *Set) {
	off := base.Depth + 1
	if off > e.MaxDepth {
		return
	}
	t.roots.ForEach(func(r int) {
		out.Full.addEdge(base.Depth, base.Sym, dtd.SymID(r))
	})
	if t.roots.Any() {
		out.ChangeRegion.or(off, t.roots)
	}
	for d, row := range t.out {
		if off+d+1 > e.MaxDepth {
			continue
		}
		for from, bits := range row {
			if bits.Any() {
				out.Full.mergeRow(off+d, dtd.SymID(from), bits)
				out.ChangeRegion.or(off+d+1, bits)
			}
		}
	}
	for d, bits := range t.ends {
		if off+d <= e.MaxDepth && bits.Any() {
			out.Full.endsOr(off+d, bits)
			out.ChangeRegion.or(off+d, bits)
		}
	}
}

// graftAtRoots merges t as root-level chains of the update DAG,
// marking everything as change region (used when replacing the
// document root).
func (e *Engine) graftAtRoots(out *UpdateSet, t *Set) {
	out.Full.roots.Or(t.roots)
	if t.roots.Any() {
		out.ChangeRegion.or(0, t.roots)
	}
	for d, row := range t.out {
		for from, bits := range row {
			if bits.Any() {
				out.Full.mergeRow(d, dtd.SymID(from), bits)
				out.ChangeRegion.or(d+1, bits)
			}
		}
	}
	for d, bits := range t.ends {
		if bits.Any() {
			out.Full.endsOr(d, bits)
			out.ChangeRegion.or(d, bits)
		}
	}
}
