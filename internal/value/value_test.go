package value

import (
	"strconv"
	"sync"
	"testing"
	"testing/quick"
)

func TestNullRoundTrip(t *testing.T) {
	f := func(i int64) bool {
		if i < 0 {
			i = -i
		}
		v := Null(i)
		return v.IsNull() && !v.IsConst() && v.NullIndex() == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNullNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Null(-1) did not panic")
		}
	}()
	Null(-1)
}

func TestNullIndexOfConstPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NullIndex on constant did not panic")
		}
	}()
	Value(3).NullIndex()
}

func TestSymbolsIntern(t *testing.T) {
	s := NewSymbols()
	a := s.Const("alice")
	b := s.Const("bob")
	if a == b {
		t.Fatal("distinct names interned to same value")
	}
	if a2 := s.Const("alice"); a2 != a {
		t.Fatal("re-interning changed value")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if got := s.Name(a); got != "alice" {
		t.Errorf("Name(a) = %q", got)
	}
	v, ok := s.Lookup("bob")
	if !ok || v != b {
		t.Errorf("Lookup(bob) = %v,%v", v, ok)
	}
	if _, ok := s.Lookup("carol"); ok {
		t.Error("Lookup of unknown name succeeded")
	}
}

func TestSymbolsZeroValue(t *testing.T) {
	var s Symbols
	v := s.Const("x")
	if !v.IsConst() {
		t.Error("zero-value Symbols unusable")
	}
}

func TestSymbolsNameFallbacks(t *testing.T) {
	s := NewSymbols()
	if got := s.Name(Null(4)); got != "⊥4" {
		t.Errorf("null name = %q", got)
	}
	if got := s.Name(Value(99)); got != "#99" {
		t.Errorf("unknown const name = %q", got)
	}
}

func TestInts(t *testing.T) {
	s := NewSymbols()
	vs := s.Ints(5)
	if len(vs) != 5 {
		t.Fatalf("len = %d", len(vs))
	}
	for i, v := range vs {
		if s.Name(v) != string(rune('0'+i)) {
			t.Errorf("Ints[%d] = %q", i, s.Name(v))
		}
	}
	// Idempotent.
	vs2 := s.Ints(5)
	for i := range vs {
		if vs[i] != vs2[i] {
			t.Error("Ints not idempotent")
		}
	}
}

func TestNullGen(t *testing.T) {
	var g NullGen
	a := g.Fresh()
	b := g.Fresh()
	if a == b {
		t.Error("Fresh returned duplicate nulls")
	}
	if !a.IsNull() || !b.IsNull() {
		t.Error("Fresh returned non-null")
	}
	if g.Count() != 2 {
		t.Errorf("Count = %d", g.Count())
	}
}

func TestValueString(t *testing.T) {
	if got := Value(7).String(); got != "#7" {
		t.Errorf("const String = %q", got)
	}
	if got := Null(2).String(); got != "⊥2" {
		t.Errorf("null String = %q", got)
	}
}

func TestConstNullDisjoint(t *testing.T) {
	s := NewSymbols()
	var g NullGen
	for i := 0; i < 100; i++ {
		c := s.Const(string(rune('a' + i%26)))
		n := g.Fresh()
		if c == n {
			t.Fatal("constant equals null")
		}
		if c.IsNull() || n.IsConst() {
			t.Fatal("kind predicates wrong")
		}
	}
}

func TestSymbolsNamesSnapshot(t *testing.T) {
	s := NewSymbols()
	a := s.Const("a")
	b := s.Const("b")
	names := s.Names()
	c := s.Const("c")
	if len(names) != 2 || names[a] != "a" || names[b] != "b" {
		t.Fatalf("Names() = %q, want [a b]", names)
	}
	if int(c) < len(names) {
		t.Errorf("constant interned after the snapshot lies inside it")
	}
	if got := s.Names(); len(got) != 3 || got[c] != "c" {
		t.Errorf("fresh Names() = %q, want [a b c]", got)
	}
}

// TestSymbolsNamesConcurrentIntern reads every name of a Names snapshot
// while another goroutine keeps interning: the snapshot must stay
// intact without the lock (run with -race).
func TestSymbolsNamesConcurrentIntern(t *testing.T) {
	s := NewSymbols()
	s.Ints(64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 64; i < 2000; i++ {
			s.Const(strconv.Itoa(i))
		}
	}()
	for round := 0; round < 200; round++ {
		names := s.Names()
		for v, name := range names {
			if name != strconv.Itoa(v) {
				t.Fatalf("round %d: constant %d named %q", round, v, name)
			}
		}
	}
	wg.Wait()
}

// TestSymbolsConstBytes: ConstBytes interns like Const, copies a new
// name out of the caller's buffer, and allocates nothing on a hit.
func TestSymbolsConstBytes(t *testing.T) {
	s := NewSymbols()
	buf := []byte("ann")
	v := s.ConstBytes(buf)
	copy(buf, "bob")
	if s.Name(v) != "ann" || s.Const("ann") != v {
		t.Fatalf("ConstBytes interned %q as %v; the name must be copied out of the buffer", s.Name(v), v)
	}
	if w := s.ConstBytes([]byte("ann")); w != v {
		t.Errorf("second ConstBytes of ann = %v, want %v", w, v)
	}
	hit := []byte("ann")
	if n := testing.AllocsPerRun(100, func() { s.ConstBytes(hit) }); n != 0 {
		t.Errorf("ConstBytes of an interned name allocates %v times", n)
	}

	// Racing Const and ConstBytes over the same new names intern each
	// once.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			s.Const(strconv.Itoa(i))
		}
	}()
	for i := 0; i < 1000; i++ {
		s.ConstBytes([]byte(strconv.Itoa(i)))
	}
	wg.Wait()
	if s.Len() != 1001 {
		t.Fatalf("%d constants after interning 1,000 names twice besides ann, want 1001", s.Len())
	}
	for i := 0; i < 1000; i++ {
		if v := s.ConstBytes([]byte(strconv.Itoa(i))); s.Name(v) != strconv.Itoa(i) {
			t.Fatalf("name %d interned as %v, named %q", i, v, s.Name(v))
		}
	}
}
