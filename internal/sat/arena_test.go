package sat

import (
	"reflect"
	"testing"
)

// Adding a clause copies its literals into the arena and appends one
// watcher to each of two watch lists: with room in the arena and in
// the watch lists, adding a 3-literal clause allocates nothing.
func TestAddClauseAllocatesNothing(t *testing.T) {
	const nv, runs = 12, 100
	s := New()
	for i := 0; i < nv; i++ {
		s.NewVar()
	}
	s.arena = make([]Lit, 1, 1+4*(runs+1))
	for i := range s.watches {
		s.watches[i] = make([]watcher, 0, 2*(runs+1))
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		a, b, c := Lit(i%nv+1), Lit((i+1)%nv+1), Lit((i+2)%nv+1)
		if i&1 == 1 {
			b = -b
		}
		if i&2 == 2 {
			c = -c
		}
		if !s.AddClause(a, b, c) {
			t.Fatal("a 3-literal clause over fresh variables refuted the formula")
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per added clause, want 0", allocs)
	}
	if got := len(s.arena); got != 1+4*(runs+1) {
		t.Errorf("arena holds %d literals, want %d", got, 1+4*(runs+1))
	}
	if !s.Solve() {
		t.Error("the formula has models (all variables true)")
	}
}

// Clause memory holds no pointers: the arena, the watchers, the
// reasons and the learnt list address clauses by offset, so the
// collector never scans them and writing them raises no write barrier.
func TestClauseMemoryHoldsNoPointers(t *testing.T) {
	solver := reflect.TypeOf(Solver{})
	for _, typ := range []reflect.Type{
		reflect.TypeOf(watcher{}),
		field(t, solver, "arena").Elem(),
		field(t, solver, "reason").Elem(),
		field(t, solver, "learnts").Elem(),
	} {
		if hasPointers(typ) {
			t.Errorf("%v holds pointers", typ)
		}
	}
}

func field(t *testing.T, typ reflect.Type, name string) reflect.Type {
	t.Helper()
	f, ok := typ.FieldByName(name)
	if !ok {
		t.Fatalf("%v has no field %s", typ, name)
	}
	return f.Type
}

// hasPointers reports whether a value of type t holds a pointer the
// garbage collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.String:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
