package core

import (
	"fmt"
	"testing"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/dep"
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
