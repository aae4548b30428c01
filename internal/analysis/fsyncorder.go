package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// FsyncOrder mechanizes the PR-2-review durability ordering: namespace
// changes made through the store's injectable FS (Create, OpenAppend,
// Rename, Remove) are not durable until SyncDir, and a rename must not
// promote content that was never itself fsynced. Concretely:
//
//  1. every call to Rename on an FS-like interface must be preceded, in
//     the same function, by a File.Sync call (content durable before the
//     name points at it), and
//  2. every exported function whose success path performs a namespace
//     change — directly or through helpers, package-local or not — must
//     follow it with SyncDir before returning; helpers may leave the
//     obligation to their callers, but it must be discharged before the
//     API boundary. The helper summaries are a whole-program fact, so an
//     obligation created in internal/store and leaked through a wrapper
//     in another package is still caught.
//  3. every journal reset — File.Truncate(0) — must be preceded, on every
//     path through the same function, by a File.Sync: the records a reset
//     drops are safe to lose only once the checkpoint that absorbed them
//     is durable. A steady-state checkpoint overwrites a snapshot slot in
//     place and has no Rename for rule 1 to anchor on; this rule orders
//     its slot fsync before the reset instead.
//
// "FS-like" is duck-typed: any interface that offers both the mutating
// method and SyncDir. Methods on types that themselves implement such an
// interface (DirFS, MemFS, FaultFS) are the substrate, not users of it,
// and are skipped.
var FsyncOrder = &Analyzer{
	Name: "fsyncorder",
	Doc: "flag FS namespace changes (Create/OpenAppend/Rename/Remove) not " +
		"bracketed by File.Sync and SyncDir on the success path, and " +
		"journal resets (File.Truncate(0)) not preceded by a File.Sync on every path",
	Run: runFsyncOrder,
}

// fsMutators are the FS methods that change the directory namespace.
// Truncate is excluded: the FS contract makes it durable on return.
var fsMutators = map[string]bool{"Create": true, "OpenAppend": true, "Rename": true, "Remove": true}

// fsLikeCall classifies x.M(...) where x's static type is an interface
// declaring both M and SyncDir.
func fsLikeCall(info *types.Info, call *ast.CallExpr) (name string, ok bool) {
	recv, name, isMethod := methodCall(info, call)
	if !isMethod {
		return "", false
	}
	iface := ifaceOf(info.TypeOf(recv))
	if iface == nil || !ifaceHasMethod(iface, "SyncDir") || !ifaceHasMethod(iface, name) {
		return "", false
	}
	return name, true
}

// isFileSyncCall reports a zero-argument .Sync() method call (File.Sync).
func isFileSyncCall(info *types.Info, call *ast.CallExpr) bool {
	_, name, isMethod := methodCall(info, call)
	return isMethod && name == "Sync" && len(call.Args) == 0
}

// isJournalReset reports x.Truncate(0) where x's static type is a
// File-like interface: one offering Truncate and Sync but not SyncDir
// (FS.Truncate names a file and is durable on return).
func isJournalReset(info *types.Info, call *ast.CallExpr) bool {
	recv, name, ok := methodCall(info, call)
	if !ok || name != "Truncate" || len(call.Args) != 1 {
		return false
	}
	iface := ifaceOf(info.TypeOf(recv))
	if iface == nil || !ifaceHasMethod(iface, "Sync") || ifaceHasMethod(iface, "SyncDir") {
		return false
	}
	tv, ok := info.Types[call.Args[0]]
	return ok && tv.Value != nil && constant.Sign(tv.Value) == 0
}

// syncedOnEveryPath reports whether every path from the function's
// entry to site passes one of syncs: one earlier in site's own block,
// or one in a block that the path crosses. Unlike dominance by a single
// sync, this accepts a sync on each branch of an if.
func syncedOnEveryPath(ff *funcFlow, site ast.Node, syncs []ast.Node) bool {
	sb := ff.block(site)
	if sb == nil {
		return false
	}
	cut := map[*Block]bool{}
	for _, s := range syncs {
		switch b := ff.block(s); {
		case b == sb && s.Pos() < site.Pos():
			return true
		case b != nil && b != sb:
			cut[b] = true
		}
	}
	seen := map[*Block]bool{}
	var reaches func(*Block) bool
	reaches = func(b *Block) bool {
		if b == sb {
			return true
		}
		if seen[b] || cut[b] {
			return false
		}
		seen[b] = true
		for _, next := range b.Succs {
			if reaches(next) {
				return true
			}
		}
		return false
	}
	return !reaches(ff.cfg.Entry)
}

// implementsFSLike reports whether the method's receiver type itself has
// a SyncDir method — i.e. the function is part of an FS implementation.
func implementsFSLike(fd *ast.FuncDecl, info *types.Info) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	t := info.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return false
	}
	for _, typ := range []types.Type{t, types.NewPointer(deref(t))} {
		ms := types.NewMethodSet(typ)
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == "SyncDir" {
				return true
			}
		}
	}
	return false
}

// fsEvents summarizes one function's durability-relevant actions.
type fsEvents struct {
	lastMutate token.Pos // latest namespace change (NoPos if none)
	mutateName string    // method name at lastMutate, for the diagnostic
	lastSync   token.Pos // latest SyncDir (NoPos if none)
	hasSync    bool
}

// dirty reports whether a namespace change is not followed by SyncDir.
func (e fsEvents) dirty() bool {
	return e.lastMutate != token.NoPos && (!e.hasSync || e.lastSync < e.lastMutate)
}

// fsyncEvents computes the per-function durability summaries as a
// whole-program fixpoint: a call to a dirty helper counts as a
// namespace change at the call site; a call to a clean helper that
// performs SyncDir counts as a sync point (SyncDir makes *all* prior
// namespace changes durable, so a helper ending synced discharges
// earlier obligations too). Positions in a summary are local to the
// summarized function's file set and are only ever compared within it.
func fsyncEvents(prog *Program) map[FuncID]fsEvents {
	if prog == nil {
		return nil
	}
	return prog.Fact("fsyncorder.events", func() any {
		events := map[FuncID]fsEvents{}
		nodes := prog.SortedNodes()
		for changed := true; changed; {
			changed = false
			for _, n := range nodes {
				if implementsFSLike(n.Decl, n.Pkg.Info) {
					continue
				}
				e := computeFsEvents(n, events)
				if e != events[n.ID] {
					events[n.ID] = e
					changed = true
				}
			}
		}
		return events
	}).(map[FuncID]fsEvents)
}

// computeFsEvents folds one function's body over the current summaries.
func computeFsEvents(node *CGNode, events map[FuncID]fsEvents) fsEvents {
	info := node.Pkg.Info
	var e fsEvents
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := fsLikeCall(info, call); ok {
			switch {
			case fsMutators[name]:
				if call.Pos() > e.lastMutate {
					e.lastMutate, e.mutateName = call.Pos(), name
				}
			case name == "SyncDir":
				e.hasSync = true
				if call.Pos() > e.lastSync {
					e.lastSync = call.Pos()
				}
			}
			return true
		}
		callee := calleeOf(info, call)
		if callee == nil {
			return true
		}
		ce, ok := events[FuncID(callee.FullName())]
		if !ok {
			return true
		}
		if ce.dirty() {
			if call.Pos() > e.lastMutate {
				e.lastMutate, e.mutateName = call.Pos(), ce.mutateName
			}
		} else if ce.hasSync {
			e.hasSync = true
			if call.Pos() > e.lastSync {
				e.lastSync = call.Pos()
			}
		}
		return true
	})
	return e
}

func runFsyncOrder(pass *Pass) error {
	events := fsyncEvents(pass.Prog)

	for _, fd := range funcDecls(pass.Files) {
		if implementsFSLike(fd, pass.Info) {
			continue
		}
		// Rule 1: rename only after the content is fsynced.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := fsLikeCall(pass.Info, call); ok && name == "Rename" {
				synced := false
				ast.Inspect(fd.Body, func(m ast.Node) bool {
					if c, ok := m.(*ast.CallExpr); ok && c.Pos() < call.Pos() && isFileSyncCall(pass.Info, c) {
						synced = true
					}
					return !synced
				})
				if !synced {
					pass.Reportf(call.Pos(),
						"Rename without a preceding File.Sync in this function: the renamed content may not be durable when the name starts pointing at it")
				}
			}
			return true
		})
		// Rule 3: a journal reset only after a File.Sync on every path.
		var ff *funcFlow
		var syncs []ast.Node
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isJournalReset(pass.Info, call) {
				return true
			}
			if ff == nil {
				ff = newFuncFlow(fd)
				syncs = collectGuards(fd.Body, func(m ast.Node) bool {
					c, ok := m.(*ast.CallExpr)
					return ok && isFileSyncCall(pass.Info, c)
				})
			}
			if !syncedOnEveryPath(ff, call, syncs) {
				pass.Reportf(call.Pos(),
					"journal reset (File.Truncate(0)) without a File.Sync before it on every path in this function: the records it drops may not yet be covered by a durable checkpoint")
			}
			return true
		})
		// Rule 2: exported entry points must not return with the
		// namespace dirty.
		if fd.Name.IsExported() {
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			if e := events[FuncID(fn.FullName())]; e.dirty() {
				pass.Reportf(e.lastMutate,
					"namespace change (%s) is not followed by SyncDir before this exported function returns; the entry is not durable across power loss", e.mutateName)
			}
		}
	}
	return nil
}
