package analysis

// DeadlineFlow enforces bounded waiting on the serve stack's hot
// paths: a potentially-blocking channel operation — a select with no
// default, a channel send, a receive from a data channel — is flagged
// unless its own shape bounds the wait, so a stuck peer degrades into
// a shed/timeout instead of an unbounded park. A check made before the
// operation (a ctx.Err poll, a deadline comparison) does not count: it
// cannot wake a goroutine already parked.
//
// The shapes that bound a wait: a select with a default, or with a
// ctx.Done or signal-channel case (chan struct{} — quit/done/ready); a
// receive from a signal channel; a range-over-channel drain. The
// lifecycle waits among them park on purpose, for the lifetime of the
// peer, not a request.

import (
	"go/ast"
	"go/token"
)

var DeadlineFlow = &Analyzer{
	Name: "deadlineflow",
	Doc: "flag potentially-blocking selects/sends/receives on the serve " +
		"paths whose own shape does not bound the wait",
	AppliesTo: func(pkgPath string) bool {
		return pathHasSuffix(pkgPath, "internal/serve") ||
			pathHasSuffix(pkgPath, "internal/netserve") ||
			pathHasSuffix(pkgPath, "internal/store")
	},
	Run: runDeadlineFlow,
}

// runDeadlineFlow reports each channel operation that can park
// unboundedly. `go` bodies and func literals are skipped — the spawned
// goroutine is analyzed as its own function if declared, a raw
// goroutine's waits are rawgo's concern, and a literal's spawner owns
// its discipline. A range-over-channel drain has no receive expression,
// so it is never reported.
func runDeadlineFlow(pass *Pass) error {
	for _, fd := range funcDecls(pass.Files) {
		comm := commOps(fd.Body)
		report := func(n ast.Node, desc string) {
			pass.Reportf(n.Pos(),
				"%s has no bound on its wait (no default, ctx.Done or signal-channel case); a stuck peer parks this goroutine forever", desc)
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt, *ast.FuncLit:
				return false
			case *ast.SelectStmt:
				if !selectHasDefault(n) && !selectSelfGuarded(pass, n) {
					report(n, "blocking select (no default, no ctx/signal case)")
				}
			case *ast.SendStmt:
				if !comm[n] {
					report(n, "channel send")
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && !comm[n] && !isSignalChan(pass.Info, n.X) {
					report(n, "channel receive")
				}
			}
			return true
		})
	}
	return nil
}

// selectSelfGuarded reports whether one of the select's cases is itself
// an escape hatch: a receive from a signal channel (which includes
// ctx.Done() — its channel is <-chan struct{}) means the select wakes
// when the lifecycle ends.
func selectSelfGuarded(pass *Pass, sel *ast.SelectStmt) bool {
	for _, cs := range sel.Body.List {
		cc := cs.(*ast.CommClause)
		if cc.Comm == nil {
			continue
		}
		guarded := false
		ast.Inspect(cc.Comm, func(n ast.Node) bool {
			if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW && isSignalChan(pass.Info, u.X) {
				guarded = true
			}
			return !guarded
		})
		if guarded {
			return true
		}
	}
	return false
}
