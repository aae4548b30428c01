//go:build mutants

package analysis

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestVetMutants applies each entry of the mutant table to a copy of
// the module and runs every analyzer over it the way cmd/constvet does:
// the copy must be clean before any edit, and each mutant must draw an
// unsuppressed finding from its own analyzer in the edited file and
// none from any other. Run it with `make vet-mutants`.
func TestVetMutants(t *testing.T) {
	dir := t.TempDir()
	copyModule(t, dir)
	if got := unsuppressed(t, dir); len(got) > 0 {
		t.Fatalf("unmutated copy is not clean:\n%s", findingList(got))
	}
	for _, m := range mutants {
		t.Run(m.analyzer, func(t *testing.T) {
			path := filepath.Join(dir, m.file)
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := os.WriteFile(path, orig, 0o644); err != nil {
					t.Fatal(err)
				}
			}()
			edited := strings.Replace(string(orig), m.old, m.new, 1)
			if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
				t.Fatal(err)
			}
			own := 0
			for _, f := range unsuppressed(t, dir) {
				switch {
				case f.Analyzer != m.analyzer:
					t.Errorf("mutant of %s fired another analyzer: %s", m.file, f)
				case f.Pos.Filename == path:
					own++
				}
			}
			if own == 0 {
				t.Errorf("%s missed its mutant of %s", m.analyzer, m.file)
			}
		})
	}
}

// copyModule copies the module's go.mod and Go sources into dir,
// skipping dot directories and testdata.
func copyModule(t *testing.T, dir string) {
	t.Helper()
	root, err := filepath.Abs(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, strings.TrimPrefix(path, root))
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.WriteFile(dst, src, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// unsuppressed loads the module at dir and returns every unsuppressed
// finding of every analyzer, applying AppliesTo as cmd/constvet does.
func unsuppressed(t *testing.T, dir string) []Finding {
	t.Helper()
	prog, pkgs, err := LoadProgram(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	var out []Finding
	for _, pkg := range pkgs {
		for _, a := range All() {
			if a.AppliesTo != nil && !a.AppliesTo(pkg.ImportPath) {
				continue
			}
			fs, err := RunAnalyzer(a, prog, pkg)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range fs {
				if !f.Suppressed {
					out = append(out, f)
				}
			}
		}
	}
	return out
}

func findingList(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString("  " + f.String() + "\n")
	}
	return b.String()
}
