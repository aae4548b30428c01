package analysis

import (
	"go/ast"
	"go/types"
)

// DeltaReset guards the incremental-maintenance layer introduced with
// the delta-driven decide/apply path (PR 6): whenever a component drops
// its memoized decisions because its view of the instance diverged —
// a resync after a divergence, a stale speculated batch — the maintained
// delta state (indexes, support counters, incrementally chased padding)
// is stale for exactly the same reason and must be dropped with it. A
// decision cache that outlives its basis returns wrong answers later;
// delta state that outlives its basis corrupts every subsequent apply.
//
// The analyzer flags a call x.InvalidateDecisions() where x's method
// set also offers InvalidateDeltas, unless the enclosing function pairs
// it with x.InvalidateDeltas() on the same receiver — or is itself an
// Invalidate* forwarder (the one place a lone forward is the point).
// Clearing only the decisions on such a receiver is deliberate
// somewhere? Say so with //constvet:allow deltareset -- reason.
var DeltaReset = &Analyzer{
	Name: "deltareset",
	Doc: "flag InvalidateDecisions() calls on receivers that also have " +
		"InvalidateDeltas, without the paired InvalidateDeltas() call in " +
		"the same function; diverged sessions must drop delta state too",
	Run: runDeltaReset,
}

// hasMethodNamed reports whether name is in the method set of t or *t.
func hasMethodNamed(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	for _, typ := range []types.Type{t, types.NewPointer(t)} {
		ms := types.NewMethodSet(typ)
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == name {
				return true
			}
		}
	}
	return false
}

func runDeltaReset(pass *Pass) error {
	for _, fd := range funcDecls(pass.Files) {
		// Forwarders that exist to expose one of the invalidations are
		// the single place a lone call is correct by construction.
		if fd.Name.Name == "InvalidateDecisions" || fd.Name.Name == "InvalidateDeltas" {
			continue
		}
		// First pass: receivers whose delta state is reset here.
		reset := map[string]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if recv, name, ok := methodCall(pass.Info, call); ok && name == "InvalidateDeltas" {
				reset[exprBaseName(recv)] = true
			}
			return true
		})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			recv, name, ok := methodCall(pass.Info, call)
			if !ok || name != "InvalidateDecisions" {
				return true
			}
			if !hasMethodNamed(pass.TypeOf(recv), "InvalidateDeltas") {
				return true // receiver has no delta state to drop
			}
			if reset[exprBaseName(recv)] {
				return true
			}
			pass.Reportf(call.Pos(),
				"InvalidateDecisions() on %q without the paired InvalidateDeltas() in this function; a diverged session must drop its maintained delta state too (or //constvet:allow deltareset with a reason)", exprBaseName(recv))
			return true
		})
	}
	return nil
}
