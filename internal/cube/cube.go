// Package cube implements single-output Boolean cube and cover algebra in
// the positional-cube (MV-2) representation, together with a two-level
// SOP minimizer in the espresso style (expand / irredundant / reduce).
//
// It is the Boolean substrate for the Monotonous Cover synthesis flow:
// region functions are cubes, excitation functions are covers, and the
// generalized-MC gate sharing of Section VI of the paper is driven by the
// minimizer in this package. No external EDA or Boolean-minimization
// library is used anywhere in the module.
//
// Each variable occupies two bits of a uint64 word:
//
//	01 — the variable appears complemented (must be 0),
//	10 — the variable appears uncomplemented (must be 1),
//	11 — the variable is absent from the cube (don't care),
//	00 — the empty (contradictory) value; a cube containing it is empty.
package cube

import (
	"fmt"
	"strings"
)

// Lit is the two-bit positional encoding of one variable inside a cube.
type Lit uint8

// Positional-cube literal values.
const (
	Empty Lit = 0 // contradictory: no value satisfies the cube
	Zero  Lit = 1 // variable must be 0 (complemented literal)
	One   Lit = 2 // variable must be 1 (positive literal)
	Full  Lit = 3 // variable absent (don't care)
)

// String returns "0", "1", "-" or "e" for the literal value.
func (l Lit) String() string {
	switch l {
	case Zero:
		return "0"
	case One:
		return "1"
	case Full:
		return "-"
	default:
		return "e"
	}
}

const varsPerWord = 32

// Cube is a conjunction of literals over n Boolean variables.
// The zero value is not usable; construct cubes with NewFull, Parse or
// FromLits.
type Cube struct {
	n int
	w []uint64
}

func words(n int) int { return (n + varsPerWord - 1) / varsPerWord }

// fullWordMask returns the bit pattern of word i of an n-variable full cube.
func fullWordMask(n, i int) uint64 {
	lo := i * varsPerWord
	hi := lo + varsPerWord
	if hi > n {
		hi = n
	}
	if hi <= lo {
		return 0
	}
	k := uint(hi - lo)
	if k == varsPerWord {
		return ^uint64(0)
	}
	return (uint64(1) << (2 * k)) - 1
}

// NewFull returns the universal cube (all don't cares) over n variables.
func NewFull(n int) Cube {
	if n < 0 {
		panic("cube: negative variable count")
	}
	c := Cube{n: n, w: make([]uint64, words(n))}
	for i := range c.w {
		c.w[i] = fullWordMask(n, i)
	}
	return c
}

// FromLits builds a cube over n variables from an explicit literal map;
// variables not mentioned are don't cares.
func FromLits(n int, lits map[int]Lit) Cube {
	c := NewFull(n)
	for i, l := range lits { //reprolint:ordered writes hit disjoint variable positions; the resulting cube is order-independent
		c.Set(i, l)
	}
	return c
}

// N returns the number of variables of the cube's space.
func (c Cube) N() int { return c.n }

// Get returns the literal value of variable i.
func (c Cube) Get(i int) Lit {
	return Lit(c.w[i/varsPerWord] >> (2 * uint(i%varsPerWord)) & 3)
}

// Set assigns literal value l to variable i, in place.
func (c Cube) Set(i int, l Lit) {
	sh := 2 * uint(i%varsPerWord)
	c.w[i/varsPerWord] = c.w[i/varsPerWord]&^(3<<sh) | uint64(l)<<sh
}

// CopyFrom overwrites c with o's literals in place. Both cubes must be
// over the same variable count; search loops use it to recycle one
// scratch cube instead of cloning per candidate.
func (c Cube) CopyFrom(o Cube) {
	copy(c.w, o.w)
}

// Clone returns an independent copy of the cube.
func (c Cube) Clone() Cube {
	d := Cube{n: c.n, w: make([]uint64, len(c.w))}
	copy(d.w, c.w)
	return d
}

// Equal reports whether the two cubes are identical.
func (c Cube) Equal(d Cube) bool {
	if c.n != d.n {
		return false
	}
	for i := range c.w {
		if c.w[i] != d.w[i] {
			return false
		}
	}
	return true
}

// IsEmpty reports whether the cube is contradictory (some variable has the
// empty value).
func (c Cube) IsEmpty() bool {
	for i, w := range c.w {
		full := fullWordMask(c.n, i)
		// A position is empty when both of its bits are zero. Detect any
		// 00 pair among the positions covered by full.
		pairs := (w | w>>1) & 0x5555555555555555 & full
		want := full & 0x5555555555555555
		if pairs != want {
			return true
		}
	}
	return false
}

// IsFull reports whether the cube is the universal cube.
func (c Cube) IsFull() bool {
	for i, w := range c.w {
		if w != fullWordMask(c.n, i) {
			return false
		}
	}
	return true
}

// Intersect returns the conjunction of c and d. The result may be empty;
// check with IsEmpty.
func (c Cube) Intersect(d Cube) Cube {
	if c.n != d.n {
		panic("cube: dimension mismatch in Intersect")
	}
	r := Cube{n: c.n, w: make([]uint64, len(c.w))}
	for i := range c.w {
		r.w[i] = c.w[i] & d.w[i]
	}
	return r
}

// Intersects reports whether c ∧ d is non-empty, without allocating.
func (c Cube) Intersects(d Cube) bool {
	if c.n != d.n {
		panic("cube: dimension mismatch in Intersects")
	}
	for i := range c.w {
		w := c.w[i] & d.w[i]
		full := fullWordMask(c.n, i)
		pairs := (w | w>>1) & 0x5555555555555555 & full
		if pairs != full&0x5555555555555555 {
			return false
		}
	}
	return true
}

// Contains reports whether c ⊇ d as sets of minterms (every literal of c
// is no more constraining than d's). An empty d is contained in anything.
func (c Cube) Contains(d Cube) bool {
	if c.n != d.n {
		panic("cube: dimension mismatch in Contains")
	}
	if d.IsEmpty() {
		return true
	}
	for i := range c.w {
		if c.w[i]|d.w[i] != c.w[i] {
			return false
		}
	}
	return true
}

// ContainsMinterm reports whether the minterm given by values lies in c.
func (c Cube) ContainsMinterm(values []bool) bool {
	if len(values) != c.n {
		panic("cube: dimension mismatch in ContainsMinterm")
	}
	for i, v := range values {
		l := c.Get(i)
		if v && l == Zero || !v && l == One || l == Empty {
			return false
		}
	}
	return true
}

// Distance returns the number of variables in which c and d have disjoint
// literal values (the number of empty positions of c ∧ d). Distance 0
// means the cubes intersect; distance 1 means a consensus exists.
func (c Cube) Distance(d Cube) int {
	if c.n != d.n {
		panic("cube: dimension mismatch in Distance")
	}
	dist := 0
	for i := range c.w {
		w := c.w[i] & d.w[i]
		full := fullWordMask(c.n, i)
		pairs := ^(w | w>>1) & 0x5555555555555555 & full
		dist += popcount(pairs)
	}
	return dist
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// Consensus returns the consensus cube of c and d and true when the two
// cubes are at distance exactly 1; otherwise it returns an empty cube and
// false.
func (c Cube) Consensus(d Cube) (Cube, bool) {
	if c.Distance(d) != 1 {
		return Cube{}, false
	}
	r := c.Intersect(d)
	for i := 0; i < c.n; i++ {
		if r.Get(i) == Empty {
			r.Set(i, Full)
			break
		}
	}
	return r, true
}

// Supercube returns the smallest cube containing both c and d
// (positionwise OR).
func (c Cube) Supercube(d Cube) Cube {
	if c.n != d.n {
		panic("cube: dimension mismatch in Supercube")
	}
	r := Cube{n: c.n, w: make([]uint64, len(c.w))}
	for i := range c.w {
		r.w[i] = c.w[i] | d.w[i]
	}
	return r
}

// Cofactor returns the Shannon cofactor of c with respect to cube p and
// true when it is non-empty; when c and p do not intersect the cofactor is
// empty and false is returned. Variables fixed in p become don't cares in
// the result.
func (c Cube) Cofactor(p Cube) (Cube, bool) {
	if !c.Intersects(p) {
		return Cube{}, false
	}
	r := c.Clone()
	for i := 0; i < c.n; i++ {
		if p.Get(i) != Full {
			r.Set(i, Full)
		}
	}
	return r, true
}

// LiteralCount returns the number of variables constrained by the cube
// (positions that are Zero or One).
func (c Cube) LiteralCount() int {
	k := 0
	for i := 0; i < c.n; i++ {
		if l := c.Get(i); l == Zero || l == One {
			k++
		}
	}
	return k
}

// FreeCount returns the number of don't-care positions (the cube's
// dimension as a subspace).
func (c Cube) FreeCount() int {
	k := 0
	for i := 0; i < c.n; i++ {
		if c.Get(i) == Full {
			k++
		}
	}
	return k
}

// Literals returns the constrained positions of the cube in ascending
// variable order.
func (c Cube) Literals() []int {
	var out []int
	for i := 0; i < c.n; i++ {
		if l := c.Get(i); l == Zero || l == One {
			out = append(out, i)
		}
	}
	return out
}

// String renders the cube in dash notation, e.g. "1-0-" (variable 0
// first). An empty position renders as "e".
func (c Cube) String() string {
	var b strings.Builder
	for i := 0; i < c.n; i++ {
		b.WriteString(c.Get(i).String())
	}
	return b.String()
}

// StringNamed renders the cube as a product of named literals, e.g.
// "a b' d". The empty product renders as "1"; an empty cube as "0".
func (c Cube) StringNamed(names []string) string {
	if len(names) != c.n {
		panic("cube: name count mismatch")
	}
	if c.IsEmpty() {
		return "0"
	}
	var parts []string
	for i := 0; i < c.n; i++ {
		switch c.Get(i) {
		case Zero:
			parts = append(parts, names[i]+"'")
		case One:
			parts = append(parts, names[i])
		}
	}
	if len(parts) == 0 {
		return "1"
	}
	return strings.Join(parts, " ")
}

// Parse builds a cube from dash notation ("1-0"); the string length sets
// the variable count.
func Parse(s string) (Cube, error) {
	c := NewFull(len(s))
	for i, r := range s {
		switch r {
		case '0':
			c.Set(i, Zero)
		case '1':
			c.Set(i, One)
		case '-':
			// don't care
		default:
			return Cube{}, fmt.Errorf("cube: invalid character %q at position %d", r, i)
		}
	}
	return c, nil
}

// MustParse is Parse that panics on malformed input; for tests and
// embedded tables.
func MustParse(s string) Cube {
	c, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return c
}
