package analysis

// Dominance-based guard checking shared by errflow and fsyncorder:
// "site X must be dominated by a guard of kind K" — the guard executes
// on every path from the function entry to the site, so the decision it
// encodes (error transient? slot durable?) has always been made before
// the site runs.

import "go/ast"

// funcFlow bundles one function's CFG artifacts for dominance queries.
type funcFlow struct {
	cfg     *CFG
	parents map[ast.Node]ast.Node
	dom     []map[int]bool
}

func newFuncFlow(fd *ast.FuncDecl) *funcFlow {
	cfg := BuildCFG(fd)
	return &funcFlow{cfg: cfg, parents: parentMap(fd), dom: cfg.Dominators()}
}

// block resolves a node to its basic block (nil for nodes outside the
// graph, e.g. inside func literals the CFG does not decompose).
func (ff *funcFlow) block(n ast.Node) *Block { return ff.cfg.Enclosing(n, ff.parents) }

// dominates reports whether guard executes before site on every path:
// its block strictly dominates the site's block, or both share a block
// and the guard appears first.
func (ff *funcFlow) dominates(guard, site ast.Node) bool {
	gb, sb := ff.block(guard), ff.block(site)
	if gb == nil || sb == nil {
		return false
	}
	if gb == sb {
		return guard.Pos() < site.Pos()
	}
	return ff.dom[sb.Index][gb.Index]
}

// guardedBy reports whether any guard in guards dominates site.
func (ff *funcFlow) guardedBy(site ast.Node, guards []ast.Node) bool {
	for _, g := range guards {
		if ff.dominates(g, site) {
			return true
		}
	}
	return false
}

// collectGuards walks the function body (skipping `go` bodies — a
// guard evaluated by another goroutine proves nothing here) and returns
// every node isGuard accepts.
func collectGuards(body ast.Node, isGuard func(ast.Node) bool) []ast.Node {
	var out []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			return false
		}
		if n != nil && isGuard(n) {
			out = append(out, n)
		}
		return true
	})
	return out
}
