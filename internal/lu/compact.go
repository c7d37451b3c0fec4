package lu

import (
	"fmt"
	"math"
)

// Compact is one inverse factor in the compact id encoding, stored by
// line: L^{-1} by column, U^{-1} by row. Line j's entries are
// Val[Ptr[j]:Ptr[j+1]], ids strictly ascending, and each id is one gap
// byte: the id less the previous id on the line, where the id before
// the first is j-1 — so a U^{-1} row, which starts at its diagonal,
// opens with a 1, and an L^{-1} column, whose unit diagonal is implicit
// and not stored, opens with a gap of at least 2. A gap outside
// [1, 255] is stored as a 0, an escape, and the id itself is the line's
// next escape, Esc[EscPtr[j]:EscPtr[j+1]] in order. Decoded ids are
// ints; nothing outside this package walks a line.
//
// A triangular inverse's ids sit close together: on the benchmark's
// 50k-node graph 2.9 % of them escape, so an entry costs about 9.1
// bytes against 12 for a value and an int32 id, and a line two int32
// pointers.
type Compact struct {
	N int
	// Rows bounds the ids: every stored id is below it. It is N but for
	// the L^{-1} of a block with ghost rows (a sharded index's sink),
	// which keeps only the rows of the nodes the block owns.
	Rows int
	// Unit marks a factor with an implicit 1 at each line's own id: the
	// lines store only the ids past it.
	Unit bool
	// The arrays are immutable once built; in a loaded index they alias
	// sealed PROT_READ memory.
	//
	//kdash:readonly
	Ptr []int32
	//kdash:readonly
	Gap []uint8
	//kdash:readonly
	EscPtr []int32
	//kdash:readonly
	Esc []int32
	//kdash:readonly
	Val []float64
}

// NNZ reports the stored entries.
func (c *Compact) NNZ() int { return len(c.Val) }

// Bytes is the byte size of the arrays, each at its stored width.
func (c *Compact) Bytes() int64 {
	return 8*int64(len(c.Val)) + int64(len(c.Gap)) + 4*int64(len(c.Ptr)+len(c.EscPtr)+len(c.Esc))
}

// Line appends line j's stored ids, in order, to ids.
func (c *Compact) Line(j int, ids []int) []int {
	id, e := j-1, int(c.EscPtr[j])
	for _, g := range c.Gap[c.Ptr[j]:c.Ptr[j+1]] {
		if g != 0 {
			id += int(g)
		} else {
			id, e = int(c.Esc[e]), e+1
		}
		ids = append(ids, id)
	}
	return ids
}

// A cursor walks one line: p is its next entry, e its next escape and
// id the next entry's id, N past the line's end.
type cursor struct{ p, e, id int }

// cursor returns a cursor on line j's first entry.
func (c *Compact) cursor(j int) cursor {
	r := cursor{p: int(c.Ptr[j]), e: int(c.EscPtr[j]), id: c.N}
	switch {
	case r.p == int(c.Ptr[j+1]):
	case c.Gap[r.p] != 0:
		r.id = j - 1 + int(c.Gap[r.p])
	default:
		r.id, r.e = int(c.Esc[r.e]), r.e+1
	}
	return r
}

// escapes reports how many of ids, the ascending stored ids of line j,
// the encoding escapes.
func escapes(j int, ids []int32) int {
	k, prev := 0, j-1
	for _, id := range ids {
		if g := int(id) - prev; g < 1 || g > 255 {
			k++
		}
		prev = int(id)
	}
	return k
}

// put encodes ids, the ascending stored ids of line j, into c's gaps
// from entry p and its escapes from escape e.
//
//kdash:mutates-factors
func (c *Compact) put(j, p, e int, ids []int32) {
	prev := j - 1
	for k, id := range ids {
		if g := int(id) - prev; g >= 1 && g <= 255 {
			c.Gap[p+k] = uint8(g)
		} else {
			c.Gap[p+k] = 0
			c.Esc[e] = id
			e++
		}
		prev = int(id)
	}
}

// linePointers turns per-line counts of entries and escapes, held at
// ptr[j+1] and escPtr[j+1] (index 0 holds 0), into line pointers in
// place. A pointer is an int32, so a factor whose entries would pass
// math.MaxInt32 is refused (its escapes are fewer); name labels the
// error.
func linePointers(ptr, escPtr []int32, name string) error {
	total := int64(0)
	for j := 1; j < len(ptr); j++ {
		if total += int64(ptr[j]); total > math.MaxInt32 {
			return fmt.Errorf("lu: %s holds more than %d entries", name, math.MaxInt32)
		}
		ptr[j] = int32(total)
		escPtr[j] += escPtr[j-1]
	}
	return nil
}

// newCompact allocates a factor over ids below rows whose lines the
// pointers ptr and escPtr delimit; the caller fills the gaps, escapes
// and values.
func newCompact(ptr, escPtr []int32, rows int, unit bool) *Compact {
	n := len(ptr) - 1
	return &Compact{
		N:      n,
		Rows:   rows,
		Unit:   unit,
		Ptr:    ptr,
		Gap:    make([]uint8, ptr[n]),
		EscPtr: escPtr,
		Esc:    make([]int32, escPtr[n]),
		Val:    make([]float64, ptr[n]),
	}
}

// Validate checks everything a kernel reads, so a corrupt factor is an
// error and never a fault: Rows is at most N, both pointer arrays run
// from 0 to their array's length without decreasing, the gaps and
// values are as many, and every line decodes to ids that strictly
// ascend from its diagonal (line j's first id is at least j, past j in
// a unit factor), stay below Rows and consume exactly the line's
// escapes. name labels the errors.
func (c *Compact) Validate(name string) error {
	n := c.N
	if c.Rows < 0 || c.Rows > n {
		return fmt.Errorf("%s: ids below %d for n=%d", name, c.Rows, n)
	}
	if len(c.Ptr) != n+1 || c.Ptr[0] != 0 || int(c.Ptr[n]) != len(c.Gap) || len(c.Gap) != len(c.Val) {
		return fmt.Errorf("%s pointers: %d/%d/%d entries for n=%d", name, len(c.Ptr), len(c.Gap), len(c.Val), n)
	}
	if len(c.EscPtr) != n+1 || c.EscPtr[0] != 0 || int(c.EscPtr[n]) != len(c.Esc) {
		return fmt.Errorf("%s escape pointers: %d/%d escapes for n=%d", name, len(c.EscPtr), len(c.Esc), n)
	}
	for j := 0; j < n; j++ {
		if c.Ptr[j] > c.Ptr[j+1] {
			return fmt.Errorf("%s pointer %d decreases", name, j)
		}
		if c.EscPtr[j] > c.EscPtr[j+1] {
			return fmt.Errorf("%s escape pointer %d decreases", name, j)
		}
	}
	for j := 0; j < n; j++ {
		id, e, end := j-1, int(c.EscPtr[j]), int(c.EscPtr[j+1])
		for _, g := range c.Gap[c.Ptr[j]:c.Ptr[j+1]] {
			next := id + int(g)
			if g == 0 {
				if e == end {
					return fmt.Errorf("%s line %d escapes more ids than its %d", name, j, end-int(c.EscPtr[j]))
				}
				next, e = int(c.Esc[e]), e+1
				if next <= id {
					return fmt.Errorf("%s line %d escaped id %d does not ascend past %d", name, j, next, id)
				}
			}
			if next >= c.Rows {
				return fmt.Errorf("%s line %d id %d outside [0,%d)", name, j, next, c.Rows)
			}
			if c.Unit && next == j {
				return fmt.Errorf("%s line %d stores its unit diagonal", name, j)
			}
			id = next
		}
		if e != end {
			return fmt.Errorf("%s line %d escapes %d ids, %d listed", name, j, e-int(c.EscPtr[j]), end-int(c.EscPtr[j]))
		}
	}
	return nil
}
