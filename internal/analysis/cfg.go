// Package analysis provides the CFG-level analyses the NOELLE layer is
// built from: control-flow graph utilities, dominator and post-dominator
// trees, dominance frontiers, natural-loop detection, and def-use chains.
// These play the role of LLVM's function-level analyses, with the
// NOELLE-mandated property that results are plain values owned by the
// caller: nothing here is invalidated behind the caller's back (Section 2.2
// of the paper calls out LLVM's function-pass memory reuse as a source of
// subtle bugs).
package analysis

import "noelle/internal/ir"

// CFG caches predecessor/successor relations and orderings for a function.
type CFG struct {
	Fn    *ir.Function
	Succs map[*ir.Block][]*ir.Block
	Preds map[*ir.Block][]*ir.Block
	// RPO is a reverse postorder over blocks reachable from the entry.
	RPO []*ir.Block
	// Index maps each reachable block to its position in RPO.
	Index map[*ir.Block]int
}

// NewCFG computes the CFG caches for f.
func NewCFG(f *ir.Function) *CFG {
	c := &CFG{
		Fn:    f,
		Succs: make(map[*ir.Block][]*ir.Block, len(f.Blocks)),
		Preds: make(map[*ir.Block][]*ir.Block, len(f.Blocks)),
		Index: make(map[*ir.Block]int, len(f.Blocks)),
	}
	for _, b := range f.Blocks {
		succs := b.Successors()
		c.Succs[b] = succs
		for _, s := range succs {
			c.Preds[s] = append(c.Preds[s], b)
		}
	}
	// Postorder DFS from entry, then reverse.
	if len(f.Blocks) > 0 {
		seen := make(map[*ir.Block]bool, len(f.Blocks))
		var post []*ir.Block
		var dfs func(b *ir.Block)
		dfs = func(b *ir.Block) {
			seen[b] = true
			for _, s := range c.Succs[b] {
				if !seen[s] {
					dfs(s)
				}
			}
			post = append(post, b)
		}
		dfs(f.Entry())
		for i := len(post) - 1; i >= 0; i-- {
			c.Index[post[i]] = len(c.RPO)
			c.RPO = append(c.RPO, post[i])
		}
	}
	return c
}

// Reachable reports whether b is reachable from the entry block.
func (c *CFG) Reachable(b *ir.Block) bool {
	_, ok := c.Index[b]
	return ok
}

// ExitBlocks returns the blocks ending in ret (or with no successors).
func (c *CFG) ExitBlocks() []*ir.Block {
	var exits []*ir.Block
	for _, b := range c.RPO {
		if len(c.Succs[b]) == 0 {
			exits = append(exits, b)
		}
	}
	return exits
}
