package core

import (
	"fmt"
	"testing"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/dep"
	"github.com/constcomp/constcomp/internal/obs"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/value"
)

func cacheFixture(t *testing.T) (*Session, *value.Symbols) {
	t.Helper()
	u := attr.MustUniverse("E", "D", "M")
	sigma := dep.MustParseSet(u, "E -> D\nD -> M")
	s := MustSchema(u, sigma)
	pair := MustPair(s, u.MustSet("E", "D"), u.MustSet("D", "M"))
	syms := value.NewSymbols()
	db := relation.New(u.All())
	for i := 0; i < 4; i++ {
		db.Insert(relation.Tuple{
			syms.Const(fmt.Sprintf("emp%d", i)),
			syms.Const(fmt.Sprintf("dept%d", i%2)),
			syms.Const(fmt.Sprintf("mgr%d", i%2)),
		})
	}
	sess, err := NewSession(pair, db)
	if err != nil {
		t.Fatal(err)
	}
	return sess, syms
}

// TestSchemaMemoComplementary: repeat complement checks on one schema
// hit the memo (observable through the metrics counters) and agree with
// the cold result; the memo is bounded.
func TestSchemaMemoComplementary(t *testing.T) {
	reg := obs.NewRegistry()
	SetMetrics(reg)
	defer SetMetrics(nil)

	u := attr.MustUniverse("E", "D", "M")
	sigma := dep.MustParseSet(u, "E -> D\nD -> M")
	s := MustSchema(u, sigma)
	x := u.MustSet("E", "D")
	y := u.MustSet("D", "M")

	cold := Complementary(s, x, y)
	warm := Complementary(s, x, y)
	if cold != warm {
		t.Errorf("memoized verdict %v != cold verdict %v", warm, cold)
	}
	m1 := MinimalComplement(s, x)
	m2 := MinimalComplement(s, x)
	if !m1.Equal(m2) {
		t.Errorf("memoized minimal complement %v != %v", m2, m1)
	}
	snap := reg.Snapshot()
	if snap.Counters["core_schema_memo_hits_total"] == 0 {
		t.Errorf("schema memo never hit: %v", snap.Counters)
	}
}

// TestSchemaMemoEvictionBound floods the schema memo with distinct keys
// and checks the FIFO bound holds.
func TestSchemaMemoEvictionBound(t *testing.T) {
	u := attr.MustUniverse("A", "B")
	sigma := dep.MustParseSet(u, "A -> B")
	for i := 0; i < schemaMemoCap*2; i++ {
		s := MustSchema(u, sigma) // distinct schema pointer per iteration
		Complementary(s, u.MustSet("A", "B"), u.MustSet("B"))
	}
	schemaMemoTable.mu.Lock()
	n := len(schemaMemoTable.memo)
	schemaMemoTable.mu.Unlock()
	if n > schemaMemoCap {
		t.Errorf("schema memo holds %d entries, cap %d", n, schemaMemoCap)
	}
}

// TestPairArtifactsStable: the memoized schema-level artifacts are
// computed once and shared across decides.
func TestPairArtifactsStable(t *testing.T) {
	sess, syms := cacheFixture(t)
	p := sess.pair
	a1 := p.artifacts()
	if _, err := sess.Apply(Insert(relation.Tuple{syms.Const("zed"), syms.Const("dept0")})); err != nil {
		t.Fatal(err)
	}
	a2 := p.artifacts()
	if a1 != a2 {
		t.Error("pair artifacts recomputed between decides")
	}
	if len(a1.plans) != len(a1.splitFDs) {
		t.Errorf("plan count %d != FD count %d", len(a1.plans), len(a1.splitFDs))
	}
}
