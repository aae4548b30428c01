package constcomp

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/constcomp/constcomp/internal/analysis"
)

// allowInventory is the audited set of //constvet:allow exemptions in
// the repository, keyed "path#analyzer" with the number of allows of
// that analyzer in that file. Every entry earned its place with a
// written justification; adding a new allow means updating this table
// in the same diff, so an exemption can never slip in as a side effect.
// Test files and analyzer fixtures (testdata/) are exempt from the
// pin — the loader does not lint them.
var allowInventory = map[string]int{
	"cmd/loadgen/main.go#rawgo":                1,
	"internal/chase/depbasis.go#budgetloop":    1,
	"internal/chase/incremental.go#budgetloop": 1,
	"internal/chase/instance.go#budgetloop":    2,
	"internal/chase/maintained.go#budgetloop":  1,
	"internal/chase/tableau.go#budgetloop":     1,
	"internal/logic/logic.go#budgetloop":       2,
	"internal/serve/serve.go#lockhold":         1,
	"internal/serve/serve.go#rawgo":            1,
}

// TestConstvetAllowAudit walks every non-test Go file and checks the
// //constvet:allow discipline: each marker names at least one analyzer,
// carries a non-empty `-- reason`, and appears in allowInventory. The
// reverse direction holds too — a pinned entry whose allows disappeared
// is flagged so the table stays exact.
func TestConstvetAllowAudit(t *testing.T) {
	// registered is built from the live analyzer registry, so a new
	// analyzer is covered by this audit the moment it lands in All():
	// allows naming it are inventoried and typos in allow names fail.
	registered := map[string]bool{}
	for _, a := range analysis.All() {
		registered[a.Name] = true
	}
	found := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") && name != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		allows, err := fileAllows(path)
		if err != nil {
			return err
		}
		for _, a := range allows {
			if len(a.names) == 0 {
				t.Errorf("%s:%d: //constvet:allow names no analyzer", path, a.line)
			}
			if a.reason == "" {
				t.Errorf("%s:%d: //constvet:allow without `-- reason`: every exemption must say why", path, a.line)
			}
			for _, n := range a.names {
				if !registered[n] {
					t.Errorf("%s:%d: //constvet:allow names unknown analyzer %q (registered: see analysis.All)", path, a.line, n)
				}
				found[filepath.ToSlash(path)+"#"+n]++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for k := range found {
		keys[k] = true
	}
	for k := range allowInventory {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		got, want := found[k], allowInventory[k]
		switch {
		case got > want:
			t.Errorf("%s: %d //constvet:allow line(s), inventory pins %d — new exemptions must be added to allowInventory with intent", k, got, want)
		case got < want:
			t.Errorf("%s: %d //constvet:allow line(s), inventory pins %d — stale inventory entry, prune it", k, got, want)
		}
	}
}

type allowMark struct {
	line   int
	names  []string
	reason string
}

// fileAllows extracts the //constvet:allow markers from one file's
// comments. Only comments whose text begins with the marker count —
// prose that merely mentions the syntax (analyzer docs, error messages)
// does not.
func fileAllows(path string) ([]allowMark, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	var out []allowMark
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			rest, ok := strings.CutPrefix(text, "constvet:allow")
			if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
				continue
			}
			m := allowMark{line: fset.Position(c.Pos()).Line}
			names, reason, hasReason := strings.Cut(rest, "--")
			m.names = strings.Fields(names)
			if hasReason {
				m.reason = strings.TrimSpace(reason)
			}
			out = append(out, m)
		}
	}
	return out, nil
}
