package analysis

import (
	"go/ast"
	"path/filepath"
	"strings"
)

// RawGo forbids raw `go` statements outside the deterministic fork/join
// scheduler in internal/relation/parallel.go. Everything else must
// route work through relation.Parallelism's scheduler — or carry a
// line-level //constvet:allow naming why that goroutine IS the design
// (the serve pipeline's committer, loadgen's simulated
// client fleet) — so that worker counts, chunking, and joins stay
// deterministic and instrumented, and every sanctioned spawn site is
// individually inventoried. Introduced with PR 1's parallel kernels;
// mechanized in PR 4; package carve-outs replaced by per-line allows in
// PR 9 so the analyzer self-hosts over the whole repository.
var RawGo = &Analyzer{
	Name: "rawgo",
	Doc: "flag raw go statements outside internal/relation/parallel.go; " +
		"concurrency goes through the scheduler or a per-line allow",
	Run: runRawGo,
}

// rawGoExemptFiles are path suffixes of files allowed to spawn goroutines.
var rawGoExemptFiles = []string{"relation/parallel.go"}

func runRawGo(pass *Pass) error {
	for _, f := range pass.Files {
		name := filepath.ToSlash(pass.Fset.Position(f.Pos()).Filename)
		exempt := false
		for _, suffix := range rawGoExemptFiles {
			if strings.HasSuffix(name, suffix) {
				exempt = true
			}
		}
		if exempt {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"raw go statement outside the sanctioned concurrency sites: route parallel work through relation.Parallelism's scheduler")
			}
			return true
		})
	}
	return nil
}
