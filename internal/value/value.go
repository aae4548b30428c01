// Package value defines the value domain of the relational engine.
//
// The chase procedures of Cosmadakis–Papadimitriou manipulate relations whose
// entries are either constants (drawn from the active domain of a stored
// instance) or labeled nulls — "new symbols" in the paper's phrasing — that
// stand for unknown values and may be equated with constants or with each
// other as the chase runs. A Value packs both cases into one word:
// non-negative values are constant ids interned in a Symbols table, negative
// values are labeled nulls.
package value

import (
	"fmt"
	"strconv"
	"sync"
)

// Value is a single relation entry: a constant (>= 0, an index into a
// Symbols table) or a labeled null (< 0).
type Value int64

// Null returns the i-th labeled null (i >= 0). Distinct i give distinct
// nulls.
func Null(i int64) Value {
	if i < 0 {
		panic("value: negative null index")
	}
	return Value(-1 - i)
}

// IsNull reports whether v is a labeled null.
func (v Value) IsNull() bool { return v < 0 }

// IsConst reports whether v is a constant.
func (v Value) IsConst() bool { return v >= 0 }

// NullIndex returns i for the null Null(i). It panics on constants.
func (v Value) NullIndex() int64 {
	if !v.IsNull() {
		panic("value: NullIndex of a constant")
	}
	return int64(-1 - v)
}

// Symbols interns constant names. The zero value is ready to use.
// A Symbols table is safe for concurrent use: the serving pipeline
// interns names for incoming ops while the committer goroutine renders
// names for journal records, so interning and reading must not race.
// The lock sits at the I/O boundary — engine inner loops (joins, the
// chase) operate on Value words and never touch the table.
type Symbols struct {
	mu    sync.RWMutex
	names []string
	index map[string]Value
}

// NewSymbols returns an empty symbol table.
func NewSymbols() *Symbols {
	return &Symbols{index: make(map[string]Value)}
}

// Const interns name and returns its constant Value. Interning the same
// name twice returns the same Value.
func (s *Symbols) Const(name string) Value {
	s.mu.RLock()
	v, ok := s.index[name]
	s.mu.RUnlock()
	if ok {
		return v
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.index == nil {
		s.index = make(map[string]Value)
	}
	if v, ok := s.index[name]; ok {
		return v
	}
	v = Value(len(s.names))
	s.names = append(s.names, name)
	s.index[name] = v
	return v
}

// Lookup returns the Value previously interned for name.
func (s *Symbols) Lookup(name string) (Value, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.index[name]
	return v, ok
}

// Name returns the external name of a constant. For labeled nulls it
// renders a placeholder of the form "⊥k". Unknown constants render as
// "#k".
func (s *Symbols) Name(v Value) string {
	if v.IsNull() {
		return "⊥" + strconv.FormatInt(v.NullIndex(), 10)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if int(v) < len(s.names) {
		return s.names[v]
	}
	return "#" + strconv.FormatInt(int64(v), 10)
}

// Names returns the names interned so far, indexed by constant: the
// name of constant v < len(result) is result[v]. It takes the lock
// once; the table is append-only, so the returned prefix stays valid
// and unchanged without it, while constants interned later lie past
// its end (resolve those with Name). Callers must not modify it.
func (s *Symbols) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.names[:len(s.names):len(s.names)]
}

// Len reports the number of interned constants.
func (s *Symbols) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.names)
}

// Ints interns the decimal renderings of 0..n-1 and returns their Values.
// Convenient for synthetic workloads.
func (s *Symbols) Ints(n int) []Value {
	out := make([]Value, n)
	for i := range out {
		out[i] = s.Const(strconv.Itoa(i))
	}
	return out
}

// NullGen hands out fresh labeled nulls. The zero value starts at ⊥0.
type NullGen struct {
	next int64
}

// Fresh returns a labeled null never returned before by this generator.
func (g *NullGen) Fresh() Value {
	v := Null(g.next)
	g.next++
	return v
}

// Count reports how many nulls have been generated.
func (g *NullGen) Count() int64 { return g.next }

// String renders a Value without a symbol table: constants as "#k", nulls
// as "⊥k". Prefer Symbols.Name when a table is available.
func (v Value) String() string {
	if v.IsNull() {
		return fmt.Sprintf("⊥%d", v.NullIndex())
	}
	return fmt.Sprintf("#%d", int64(v))
}
