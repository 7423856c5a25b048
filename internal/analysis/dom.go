package analysis

import "noelle/internal/ir"

// DomTree is a dominator (or post-dominator) tree over a function's blocks.
// The NOELLE layer re-implements this LLVM abstraction so that its lifetime
// is owned by the user (see the paper, Section 2.2, "Other abstractions").
type DomTree struct {
	// IDom maps each block to its immediate dominator. The root maps to nil.
	IDom map[*ir.Block]*ir.Block
	// Children is the tree's child relation, each list in the order the
	// tree was built over (reverse postorder for dominator trees).
	Children map[*ir.Block][]*ir.Block
	// Root is the tree root: the entry block, or the virtual exit for
	// post-dominator trees (represented by a nil block; roots of the
	// post-dominator forest appear as children of nil).
	Root *ir.Block
	// Post is true for post-dominator trees.
	Post bool

	order map[*ir.Block]int // RPO index used by intersect
}

// NewDomTree builds the dominator tree of f using the Cooper-Harvey-Kennedy
// iterative algorithm over reverse postorder.
func NewDomTree(f *ir.Function) *DomTree {
	c := NewCFG(f)
	return buildDom(c.RPO, c.Preds, false)
}

// NewPostDomTree builds the post-dominator tree of f. All exit blocks (and
// blocks with no path to an exit, e.g. bodies of infinite loops) hang off a
// virtual exit represented by a nil root.
func NewPostDomTree(f *ir.Function) *DomTree {
	c := NewCFG(f)
	// Reverse CFG: order is a reverse postorder of the reversed graph,
	// seeded from all exits.
	seen := map[*ir.Block]bool{}
	var post []*ir.Block
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		seen[b] = true
		for _, p := range c.Preds[b] {
			if !seen[p] {
				dfs(p)
			}
		}
		post = append(post, b)
	}
	for _, e := range c.ExitBlocks() {
		if !seen[e] {
			dfs(e)
		}
	}
	// Blocks with no path to an exit: seed them too so every reachable
	// block is post-dominated by the virtual exit.
	for _, b := range c.RPO {
		if !seen[b] {
			dfs(b)
		}
	}
	rpo := make([]*ir.Block, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		rpo = append(rpo, post[i])
	}
	// In the reversed graph, predecessors are successors; "roots" are
	// blocks with no successors, which intersect() handles by treating the
	// virtual exit (nil) as the common ancestor.
	return buildDom(rpo, c.Succs, true)
}

func buildDom(rpo []*ir.Block, preds map[*ir.Block][]*ir.Block, post bool) *DomTree {
	t := &DomTree{
		IDom:     map[*ir.Block]*ir.Block{},
		Children: map[*ir.Block][]*ir.Block{},
		Post:     post,
		order:    make(map[*ir.Block]int, len(rpo)),
	}
	if len(rpo) == 0 {
		return t
	}
	for i, b := range rpo {
		t.order[b] = i
	}
	inSet := make(map[*ir.Block]bool, len(rpo))
	for _, b := range rpo {
		inSet[b] = true
	}

	if !post {
		t.Root = rpo[0]
		t.IDom[t.Root] = nil
	}
	// For post-dominator trees there may be several roots (all exits);
	// their idom is the virtual exit (nil).

	changed := true
	for changed {
		changed = false
		for i, b := range rpo {
			if !post && i == 0 {
				continue
			}
			var newIDom *ir.Block
			havePick := false
			rootCandidate := false
			for _, p := range preds[b] {
				if !inSet[p] {
					continue
				}
				if p == b {
					continue
				}
				if _, processed := t.IDom[p]; !processed && p != t.Root {
					continue
				}
				if !havePick {
					newIDom = p
					havePick = true
				} else {
					newIDom = t.intersect(newIDom, p)
					if newIDom == nil {
						rootCandidate = true
						break
					}
				}
			}
			if !havePick {
				// No processed predecessor: this is a root (exit block in
				// the post-dominator case).
				if post {
					if old, ok := t.IDom[b]; !ok || old != nil {
						t.IDom[b] = nil
						changed = true
					}
				}
				continue
			}
			if rootCandidate {
				newIDom = nil
			}
			if old, ok := t.IDom[b]; !ok || old != newIDom {
				t.IDom[b] = newIDom
				changed = true
			}
		}
	}
	// Children in rpo order, not IDom's map order: mem2reg and scalar
	// promotion recurse over Children, so the order decides the order of
	// phi incomings and thus the printed module.
	for _, b := range rpo {
		if idom, ok := t.IDom[b]; ok {
			t.Children[idom] = append(t.Children[idom], b)
		}
	}
	return t
}

// intersect walks the two blocks' dominator chains to their common
// ancestor. A nil result means the virtual root.
func (t *DomTree) intersect(a, b *ir.Block) *ir.Block {
	for a != b {
		if a == nil || b == nil {
			return nil
		}
		for a != nil && b != nil && t.order[a] > t.order[b] {
			a = t.IDom[a]
		}
		for a != nil && b != nil && t.order[b] > t.order[a] {
			b = t.IDom[b]
		}
	}
	return a
}

// Dominates reports whether a dominates b (reflexively).
func (t *DomTree) Dominates(a, b *ir.Block) bool {
	if a == b {
		return true
	}
	for x := t.IDom[b]; x != nil; x = t.IDom[x] {
		if x == a {
			return true
		}
	}
	return false
}

// StrictlyDominates reports whether a dominates b and a != b.
func (t *DomTree) StrictlyDominates(a, b *ir.Block) bool {
	return a != b && t.Dominates(a, b)
}

// DominatesInstr reports whether the definition point of instruction a
// dominates instruction b (used for SSA legality checks and scheduling).
func (t *DomTree) DominatesInstr(a, b *ir.Instr) bool {
	if a.Parent == b.Parent {
		blk := a.Parent
		return blk.IndexOf(a) < blk.IndexOf(b)
	}
	return t.Dominates(a.Parent, b.Parent)
}

// Frontier computes the dominance frontier of every block (Cytron et al.),
// used by mem2reg to place phis and by the PDG to compute control deps
// (via the post-dominance frontier).
func (t *DomTree) Frontier(c *CFG) map[*ir.Block][]*ir.Block {
	df := map[*ir.Block][]*ir.Block{}
	preds := c.Preds
	if t.Post {
		preds = c.Succs
	}
	for _, b := range c.RPO {
		ps := preds[b]
		if len(ps) < 2 {
			continue
		}
		for _, p := range ps {
			runner := p
			for runner != nil && runner != t.IDom[b] {
				df[runner] = appendUnique(df[runner], b)
				runner = t.IDom[runner]
			}
		}
	}
	return df
}

func appendUnique(s []*ir.Block, b *ir.Block) []*ir.Block {
	for _, x := range s {
		if x == b {
			return s
		}
	}
	return append(s, b)
}
