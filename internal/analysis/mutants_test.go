package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mutant is a small edit of the real tree that breaks one analyzer's
// invariant: old occurs exactly once in file (relative to the module
// root), and the tree with old replaced by new still builds. The
// fixture tests show that an analyzer fires on its fixtures; a mutant
// shows that the tree still has live code of the kind it guards.
// `make vet-mutants` (TestVetMutants, build tag mutants) applies each
// mutant to a copy of the module and requires a finding from its
// analyzer in the edited file and from no other analyzer.
type mutant struct {
	analyzer, file, old, new string
}

// mutants holds one entry per registered analyzer. An analyzer whose
// mutant can no longer be written, because the code it guards is gone,
// is deleted rather than kept.
var mutants = []mutant{
	{ // the chase fixpoint's per-plan budget step
		"budgetloop", "internal/chase/instance.go",
		"\t\t\tif err := b.Step(int64(len(tuples))); err != nil {\n\t\t\t\treturn nil, err\n\t\t\t}\n",
		"",
	},
	{ // ApplyAsync's submit select loses its ctx.Done escape
		"deadlineflow", "internal/serve/serve.go",
		"\tcase <-ctx.Done():\n\t\tp.mu.RUnlock()\n\t\treturn nil, ctx.Err()\n",
		"",
	},
	{ // the journal fsync error hides its cause from errors.Is
		"errclass", "internal/store/journal.go",
		`"store: journal sync: %w", err)`,
		`"store: journal sync: %v", err)`,
	},
	{ // heal backs off before classifying the batch error
		"errflow", "internal/serve/serve.go",
		"\t\tif store.Classify(batchErr) == store.ClassPermanent {\n\t\t\tbreak // resurrection cannot cure a permanent cause\n\t\t}\n",
		"",
	},
	{ // rotate rewinds the journal with no slot fsync before it
		"fsyncorder", "internal/store/session.go",
		"\tif err := sl.f.Sync(); err != nil {\n\t\treturn fmt.Errorf(\"store: snapshot sync: %w\", err)\n\t}\n",
		"",
	},
	{ // AddView closes a duplicate pipeline inside s.mu
		"lockhold", "internal/netserve/server.go",
		"\ts.mu.Unlock()\n\tif dup {\n\t\t// Close outside the lock: it waits for the pipeline's goroutines\n\t\t// to drain, and every request handler contends on s.mu.\n\t\t_ = pipe.Close()\n",
		"\tif dup {\n\t\t_ = pipe.Close()\n\t}\n\ts.mu.Unlock()\n\tif dup {\n",
	},
	{ // the imposition checks, but does not sort, the merged rows' map order
		"mapiter", "internal/chase/incremental.go",
		"\t\tsort.Ints(order)\n",
		"\t\t_ = sort.IntsAreSorted(order)\n",
	},
	{ // Counter.Add drops its nil-receiver guard
		"nilmetrics", "internal/obs/obs.go",
		"func (c *Counter) Add(n int64) {\n\tif c != nil {\n\t\tc.v.Add(n)\n\t}\n}\n",
		"func (c *Counter) Add(n int64) {\n\tc.v.Add(n)\n}\n",
	},
	{ // the committer goroutine loses its allow
		"rawgo", "internal/serve/serve.go",
		"//constvet:allow rawgo -- the committer goroutine",
		"// the committer goroutine",
	},
	{ // loadgen times its run with the wall clock
		"walltime", "cmd/loadgen/main.go",
		"\tt0 := obs.NowNS()\n\tvar wg sync.WaitGroup\n",
		"\tt0 := time.Now().UnixNano()\n\tvar wg sync.WaitGroup\n",
	},
}

// moduleRoot is the repository root, seen from this package's directory.
const moduleRoot = "../.."

// TestMutantTable keeps the mutant table in step with the registry and
// the tree without loading anything: every analyzer has a mutant, every
// mutant names a registered analyzer, and every anchor occurs exactly
// once in its file, so a change that removes an anchor fails here.
func TestMutantTable(t *testing.T) {
	covered := map[string]bool{}
	for _, m := range mutants {
		if ByName(m.analyzer) == nil {
			t.Errorf("mutant names unregistered analyzer %q", m.analyzer)
		}
		covered[m.analyzer] = true
		if m.old == m.new {
			t.Errorf("%s mutant of %s changes nothing", m.analyzer, m.file)
		}
		src, err := os.ReadFile(filepath.Join(moduleRoot, m.file))
		if err != nil {
			t.Errorf("%s mutant: %v", m.analyzer, err)
			continue
		}
		if n := strings.Count(string(src), m.old); n != 1 {
			t.Errorf("%s mutant: anchor occurs %d times in %s, want 1:\n%s", m.analyzer, n, m.file, m.old)
		}
	}
	for _, a := range All() {
		if !covered[a.Name] {
			t.Errorf("analyzer %s has no mutant", a.Name)
		}
	}
}
