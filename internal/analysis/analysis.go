// Package analysis is constvet's invariant suite: a small, dependency-free
// re-implementation of the golang.org/x/tools/go/analysis model (Analyzer,
// Pass, Diagnostic) plus a package loader built on `go list -export` and the
// standard library's gc export-data importer. The container this repository
// builds in has no module proxy, so the framework is self-hosted; the API
// mirrors x/tools closely enough that the analyzers would port mechanically.
//
// Each analyzer guards one invariant the code base otherwise enforces only
// by convention (see DESIGN.md, "Static analysis & enforced invariants"):
//
//   - fsyncorder:  store namespace changes are made durable in order
//   - mapiter:     map iteration order never reaches emitted rows unsorted
//   - budgetloop:  unbounded kernel loops check their budget
//   - nilmetrics:  obs handles are nil-safe and resolved via atomic.Pointer
//   - rawgo:       no raw goroutines outside the sanctioned sites
//   - walltime:    no wall-clock reads outside internal/obs
//
// Intentional exceptions are annotated in-diff with a
// `//constvet:allow <name> [-- reason]` comment on the offending line or the
// line directly above it; the driver drops the diagnostic but keeps it
// countable, so every exception stays visible and greppable. An allow that
// suppresses nothing when its analyzer runs is reported as stale.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics and in
	// //constvet:allow comments.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// AppliesTo reports whether the driver should run the analyzer on the
	// package with the given import path. Nil means every package. Fixture
	// tests bypass it (analysistest runs the analyzer unconditionally).
	AppliesTo func(pkgPath string) bool
	// Run performs the check, reporting findings through the pass.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Prog is the whole-program call graph the package was loaded into.
	// Dataflow analyzers use it to propagate facts (may-block, budget
	// discipline, fsync obligations) across package boundaries.
	Prog *Program

	diags []Diagnostic
}

// Diagnostic is one finding, positioned in the file set of the pass.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Finding is a diagnostic resolved to a position, with its suppression
// state: a //constvet:allow comment keeps the finding but marks it
// Suppressed so drivers can count exceptions without failing on them.
type Finding struct {
	Analyzer   string
	Pos        token.Position
	Message    string
	Suppressed bool
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
	if f.Suppressed {
		s += " (suppressed by //constvet:allow)"
	}
	return s
}

// AllowPrefix is the suppression comment marker. The comment form is
// `//constvet:allow name1 name2 -- optional reason`.
const AllowPrefix = "constvet:allow"

// allowMark is one //constvet:allow comment and the analyzers it names.
type allowMark struct {
	pos   token.Position
	names []string
}

// covers reports whether the mark suppresses a diagnostic of analyzer
// name at pos: one on the mark's own line (trailing comment) or on the
// line immediately below it (leading comment), in the same file.
func (m allowMark) covers(name string, pos token.Position) bool {
	return pos.Filename == m.pos.Filename &&
		(pos.Line == m.pos.Line || pos.Line == m.pos.Line+1) &&
		slices.Contains(m.names, name)
}

// allowMarks collects the //constvet:allow comments that name at least
// one analyzer.
func allowMarks(fset *token.FileSet, files []*ast.File) []allowMark {
	var marks []allowMark
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, AllowPrefix) {
					continue
				}
				text = text[len(AllowPrefix):]
				if text != "" && text[0] != ' ' && text[0] != '\t' {
					continue // e.g. "constvet:allowed" is not the marker
				}
				if reason := strings.Index(text, "--"); reason >= 0 {
					text = text[:reason]
				}
				if names := strings.Fields(text); len(names) > 0 {
					marks = append(marks, allowMark{pos: fset.Position(c.Pos()), names: names})
				}
			}
		}
	}
	return marks
}

// RunAnalyzer executes one analyzer over a loaded package and resolves its
// diagnostics against the package's //constvet:allow comments. An allow
// naming the analyzer that suppresses none of its diagnostics is stale
// and becomes a finding of its own: the code it excused is gone, and the
// marker would silently excuse whatever lands on its line next. prog is
// the program the package belongs to; analyzers that only need the
// package view ignore it.
func RunAnalyzer(a *Analyzer, prog *Program, pkg *Package) ([]Finding, error) {
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		Prog:     prog,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
	}
	marks := allowMarks(pkg.Fset, pkg.Files)
	used := make([]bool, len(marks))
	out := make([]Finding, 0, len(pass.diags))
	for _, d := range pass.diags {
		pos := pkg.Fset.Position(d.Pos)
		suppressed := false
		for i, m := range marks {
			if m.covers(a.Name, pos) {
				used[i], suppressed = true, true
			}
		}
		out = append(out, Finding{
			Analyzer:   a.Name,
			Pos:        pos,
			Message:    d.Message,
			Suppressed: suppressed,
		})
	}
	for i, m := range marks {
		if !used[i] && slices.Contains(m.names, a.Name) {
			out = append(out, Finding{
				Analyzer: a.Name,
				Pos:      m.pos,
				Message:  fmt.Sprintf("stale //%s %s: it suppresses no finding; remove it", AllowPrefix, a.Name),
			})
		}
	}
	return out, nil
}

// pathHasSuffix reports whether the import path ends with the given
// slash-separated suffix on a path-segment boundary.
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
