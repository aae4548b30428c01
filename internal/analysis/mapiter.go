package analysis

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// MapIter guards the determinism contract behind reproducible
// experiments: Go map iteration order is randomized, so ranging over a
// map must never decide the order of emitted tuples or rows. The
// analyzer flags a range-over-map whose body either accumulates into a
// slice declared outside the loop that is never subsequently sorted in
// the same function, or writes output directly (Print/Fprint/Write
// calls). Order-insensitive uses — counting, map-to-map transforms,
// indexed writes — pass untouched. Introduced with PR 1's deterministic
// kernels; mechanized in PR 4.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc: "flag map iteration whose order can flow into emitted " +
		"tuples/rows without an intervening sort",
	AppliesTo: func(pkgPath string) bool {
		return pathHasSuffix(pkgPath, "internal/relation") ||
			pathHasSuffix(pkgPath, "internal/chase") ||
			pathHasSuffix(pkgPath, "internal/closure")
	},
	Run: runMapIter,
}

// emitPrefixes are callee name prefixes that write directly to an output
// stream, making iteration order externally visible.
var emitPrefixes = []string{"Print", "Fprint", "Write"}

func isEmitCall(info *types.Info, call *ast.CallExpr) bool {
	var name string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return false
	}
	for _, p := range emitPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// appendTarget destructures `s = append(s, ...)` (or `s := append(...)`)
// and returns the object of s, or nil.
func appendTarget(info *types.Info, stmt *ast.AssignStmt) (types.Object, *ast.CallExpr) {
	for i, rhs := range stmt.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		if tv, ok := info.Types[call.Fun]; !ok || !tv.IsBuiltin() {
			continue
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
			continue
		}
		if i >= len(stmt.Lhs) {
			continue
		}
		lhs, ok := ast.Unparen(stmt.Lhs[i]).(*ast.Ident)
		if !ok {
			continue
		}
		if obj := info.Uses[lhs]; obj != nil {
			return obj, call
		}
		if obj := info.Defs[lhs]; obj != nil {
			return obj, call
		}
	}
	return nil, nil
}

// mentionsObj reports whether the expression tree mentions the object.
func mentionsObj(info *types.Info, root ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && (info.Uses[id] == obj || info.Defs[id] == obj) {
			found = true
		}
		return !found
	})
	return found
}

// sortFuncs are the standard-library calls that sort their argument in
// place, by import path. No other function of these packages sorts:
// sort.IntsAreSorted only checks, slices.Sorted returns a new slice.
var sortFuncs = map[string][]string{
	"sort":   {"Sort", "Stable", "Slice", "SliceStable", "Ints", "Strings", "Float64s"},
	"slices": {"Sort", "SortFunc", "SortStableFunc"},
}

// isSortCall reports whether call sorts in place: one of sortFuncs, or
// any other callee whose own name starts with "Sort" — e.g.
// relation.SortTuplesBy(out, cols), attr.SortSets(out), rows.Sort().
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return strings.HasPrefix(fun.Name, "Sort")
	case *ast.SelectorExpr:
		if x, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			if pkg, ok := info.Uses[x].(*types.PkgName); ok {
				if names, std := sortFuncs[pkg.Imported().Path()]; std {
					return slices.Contains(names, fun.Sel.Name)
				}
			}
		}
		return strings.HasPrefix(fun.Sel.Name, "Sort")
	}
	return false
}

// sortsObjAfter reports whether fn contains, past the node after, a
// sort call (isSortCall) that mentions obj as an argument or receiver.
func sortsObjAfter(pass *Pass, fn *ast.FuncDecl, obj types.Object, after ast.Node) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if call.Pos() >= after.Pos() && isSortCall(pass.Info, call) && mentionsObj(pass.Info, call, obj) {
			found = true
		}
		return !found
	})
	return found
}

func runMapIter(pass *Pass) error {
	for _, fd := range funcDecls(pass.Files) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			ast.Inspect(rng.Body, func(m ast.Node) bool {
				switch stmt := m.(type) {
				case *ast.AssignStmt:
					obj, call := appendTarget(pass.Info, stmt)
					if obj == nil {
						return true
					}
					// Accumulators declared inside the loop body reset every
					// iteration; only escape of cross-iteration order matters.
					if obj.Pos() >= rng.Body.Pos() && obj.Pos() <= rng.Body.End() {
						return true
					}
					if !sortsObjAfter(pass, fd, obj, rng) {
						pass.Reportf(call.Pos(),
							"append inside range-over-map leaks map iteration order into %q; sort it before emitting (or //constvet:allow mapiter if order is provably irrelevant)", obj.Name())
					}
				case *ast.CallExpr:
					if isEmitCall(pass.Info, stmt) {
						pass.Reportf(stmt.Pos(),
							"output written inside range-over-map follows map iteration order; collect and sort first")
					}
				}
				return true
			})
			return true
		})
	}
	return nil
}
