package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture harness is a small analysistest: fixtures live in the
// nested module testdata/src (so `go list` resolves them without
// touching the real repository), and lines carrying an expected
// diagnostic say so with a trailing
//
//	// want `regexp` [`regexp` ...]
//
// comment. Each analyzer's test loads its ok and bad fixture packages,
// runs the analyzer unconditionally (AppliesTo is a driver concern),
// and requires the unsuppressed findings and the want-comments to match
// one-to-one by file, line, and message pattern. A line whose own
// comment is the subject (a stale //constvet:allow) carries its
// expectation in a leading /* want `regexp` */ block comment instead.

// wantRe extracts the backquoted patterns of a want comment.
var wantRe = regexp.MustCompile("`([^`]*)`")

// expectation is one expected diagnostic.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

// parseExpectations collects `// want` comments from a loaded package.
func parseExpectations(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					text = strings.TrimSuffix(strings.TrimPrefix(c.Text, "/*"), "*/")
				}
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				ms := wantRe.FindAllStringSubmatch(text, -1)
				if len(ms) == 0 {
					t.Fatalf("%s: want comment with no backquoted pattern: %s", pos, c.Text)
				}
				for _, m := range ms {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, m[1], err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}

// fixtures loads the fixture packages matching pattern (relative to
// testdata/src).
func fixtures(t *testing.T, pattern string) []*Package {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(dir, "./"+pattern)
	if err != nil {
		t.Fatalf("loading fixtures %s: %v", pattern, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no fixture packages match %s", pattern)
	}
	return pkgs
}

// runFixtures checks one analyzer against every package under pattern
// and returns the suppressed findings (for the allow-comment tests).
// The loaded fixture packages form their own little program, so
// cross-package fact propagation is exercised exactly as in the driver.
func runFixtures(t *testing.T, a *Analyzer, pattern string) []Finding {
	t.Helper()
	var suppressed []Finding
	pkgs := fixtures(t, pattern)
	prog := NewProgram(pkgs)
	for _, pkg := range pkgs {
		findings, err := RunAnalyzer(a, prog, pkg)
		if err != nil {
			t.Fatalf("%s on %s: %v", a.Name, pkg.ImportPath, err)
		}
		wants := parseExpectations(t, pkg)
		for _, f := range findings {
			if f.Suppressed {
				suppressed = append(suppressed, f)
				continue
			}
			matched := false
			for _, w := range wants {
				if !w.used && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
					w.used = true
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("unexpected diagnostic:\n  %s", f)
			}
		}
		for _, w := range wants {
			if !w.used {
				t.Errorf("missing diagnostic: %s:%d: expected match for %q", w.file, w.line, w.re)
			}
		}
	}
	return suppressed
}

func TestBudgetLoopFixtures(t *testing.T) {
	suppressed := runFixtures(t, BudgetLoop, "budgetloop/...")
	if len(suppressed) != 1 {
		t.Errorf("want 1 suppressed finding from the ok fixture's allow comment, got %d", len(suppressed))
	}
}

// The three concurrency analyzers each pin one sanctioned exception in
// their ok fixture, so the allow grammar is covered for every new name.
func TestLockHoldFixtures(t *testing.T) {
	suppressed := runFixtures(t, LockHold, "lockhold/...")
	if len(suppressed) != 1 {
		t.Errorf("want 1 suppressed finding from the ok fixture's allow comment, got %d", len(suppressed))
	}
}

func TestDeadlineFlowFixtures(t *testing.T) {
	suppressed := runFixtures(t, DeadlineFlow, "deadlineflow/...")
	if len(suppressed) != 1 {
		t.Errorf("want 1 suppressed finding from the ok fixture's allow comment, got %d", len(suppressed))
	}
}

func TestErrFlowFixtures(t *testing.T) {
	suppressed := runFixtures(t, ErrFlow, "errflow/...")
	if len(suppressed) != 1 {
		t.Errorf("want 1 suppressed finding from the ok fixture's allow comment, got %d", len(suppressed))
	}
}

func TestErrClassFixtures(t *testing.T)   { runFixtures(t, ErrClass, "errclass/...") }
func TestFsyncOrderFixtures(t *testing.T) { runFixtures(t, FsyncOrder, "fsyncorder/...") }
func TestMapIterFixtures(t *testing.T)    { runFixtures(t, MapIter, "mapiter/...") }
func TestNilMetricsFixtures(t *testing.T) { runFixtures(t, NilMetrics, "nilmetrics/...") }
func TestRawGoFixtures(t *testing.T)      { runFixtures(t, RawGo, "rawgo/...") }
func TestWalltimeFixtures(t *testing.T)   { runFixtures(t, Walltime, "walltime/...") }

// TestEveryAnalyzerHasFixtures pins the fixture convention: each
// registered analyzer must have both a passing and a failing fixture.
func TestEveryAnalyzerHasFixtures(t *testing.T) {
	wantDirs := map[string][]string{
		"budgetloop":   {"budgetloop/ok", "budgetloop/bad"},
		"deadlineflow": {"deadlineflow/ok", "deadlineflow/bad"},
		"errclass":     {"errclass/ok", "errclass/bad"},
		"errflow":      {"errflow/ok", "errflow/bad"},
		"fsyncorder":   {"fsyncorder/ok", "fsyncorder/bad"},
		"lockhold":     {"lockhold/ok", "lockhold/bad"},
		"mapiter":      {"mapiter/ok", "mapiter/bad"},
		"nilmetrics":   {"nilmetrics/handles_ok", "nilmetrics/handles_bad"},
		"rawgo":        {"rawgo/ok", "rawgo/bad"},
		"walltime":     {"walltime/ok", "walltime/bad"},
	}
	for _, a := range All() {
		dirs, ok := wantDirs[a.Name]
		if !ok {
			t.Errorf("analyzer %s has no fixture directories registered in this test", a.Name)
			continue
		}
		for _, d := range dirs {
			fixtures(t, d)
		}
	}
}

// TestAllowSuppression covers the comment grammar end to end on a real
// loaded fixture: the ok fixture's allowed loop is found but marked
// suppressed, and the String form says so.
func TestAllowSuppression(t *testing.T) {
	pkgs := fixtures(t, "budgetloop/ok")
	prog := NewProgram(pkgs)
	for _, pkg := range pkgs {
		findings, err := RunAnalyzer(BudgetLoop, prog, pkg)
		if err != nil {
			t.Fatal(err)
		}
		var got []Finding
		for _, f := range findings {
			if f.Suppressed {
				got = append(got, f)
			}
		}
		if len(got) != 1 {
			t.Fatalf("want exactly 1 suppressed finding, got %v", findings)
		}
		if s := got[0].String(); !strings.Contains(s, "suppressed by //constvet:allow") {
			t.Errorf("suppressed finding String() = %q; want it to mention the allow comment", s)
		}
	}
}

// parseOne parses a source string into an untyped Package (enough for
// the comment-grammar helpers, which never consult types).
func parseOne(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{Fset: fset, Files: []*ast.File{f}}
}

// TestAllowedLinesGrammar nails the marker edge cases without fixtures.
func TestAllowedLinesGrammar(t *testing.T) {
	cases := []struct {
		comment string
		names   []string
	}{
		{"//constvet:allow mapiter", []string{"mapiter"}},
		{"//constvet:allow mapiter walltime -- reason text", []string{"mapiter", "walltime"}},
		{"//constvet:allow mapiter -- because -- of dashes", []string{"mapiter"}},
		{"//constvet:allowed mapiter", nil}, // not the marker
		{"//constvet:allow", nil},           // marker with no names
		{"// want `x`", nil},
	}
	at := func(file string, line int) token.Position { return token.Position{Filename: file, Line: line} }
	for _, tc := range cases {
		src := fmt.Sprintf("package p\n\n%s\nvar X = 1\n", tc.comment)
		pkg := parseOne(t, src)
		marks := allowMarks(pkg.Fset, pkg.Files)
		if tc.names == nil {
			if len(marks) != 0 {
				t.Errorf("%q: want no allow marks, got %v", tc.comment, marks)
			}
			continue
		}
		if len(marks) != 1 {
			t.Fatalf("%q: want 1 allow mark, got %v", tc.comment, marks)
		}
		m := marks[0]
		for _, name := range tc.names {
			if !m.covers(name, at("p.go", 3)) || !m.covers(name, at("p.go", 4)) {
				t.Errorf("%q: want %q allowed on lines 3 and 4, got %v", tc.comment, name, m)
			}
			if m.covers(name, at("p.go", 5)) || m.covers(name, at("q.go", 4)) {
				t.Errorf("%q: %q allowed beyond lines 3 and 4 of its own file", tc.comment, name)
			}
		}
		if m.covers("rawgo", at("p.go", 4)) {
			t.Errorf("%q: allows an analyzer it does not name", tc.comment)
		}
	}
}
