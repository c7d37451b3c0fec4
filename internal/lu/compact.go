package lu

import "fmt"

// Compact is one inverse factor in the compact id encoding, stored by
// line: L^{-1} by column, U^{-1} by row. Line j's entries are
// Val[Ptr[j]:Ptr[j+1]], ids strictly ascending, and each id is one gap
// byte: the id less the previous id on the line, where the id before
// the first is j-1 — so a line that starts at its diagonal, as every
// inverse line does, opens with a 1. A gap outside [1, 255] is stored
// as a 0, an escape, and the id itself is the line's next escape,
// Esc[EscPtr[j]:EscPtr[j+1]] in order. Decoded ids are ints; nothing
// outside this package walks a line.
//
// A triangular inverse's ids sit close together: on the benchmark's
// 50k-node graph 2.9 % of them escape, so an entry costs about 9.1
// bytes against 12 for a value and an int32 id.
type Compact struct {
	N int
	// The arrays are immutable once built; in a loaded index they alias
	// sealed PROT_READ memory.
	//
	//kdash:readonly
	Ptr []int
	//kdash:readonly
	Gap []uint8
	//kdash:readonly
	EscPtr []int
	//kdash:readonly
	Esc []int32
	//kdash:readonly
	Val []float64
}

// NNZ reports the stored entries.
func (c *Compact) NNZ() int { return len(c.Val) }

// Bytes is the byte size of the arrays, each at its stored width.
func (c *Compact) Bytes() int64 {
	return 8*int64(len(c.Ptr)+len(c.EscPtr)+len(c.Val)) + int64(len(c.Gap)) + 4*int64(len(c.Esc))
}

// Line appends line j's ids, in order, to ids.
func (c *Compact) Line(j int, ids []int) []int {
	id, e := j-1, c.EscPtr[j]
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
	r := cursor{p: c.Ptr[j], e: c.EscPtr[j], id: c.N}
	switch {
	case r.p == c.Ptr[j+1]:
	case c.Gap[r.p] != 0:
		r.id = j - 1 + int(c.Gap[r.p])
	default:
		r.id, r.e = int(c.Esc[r.e]), r.e+1
	}
	return r
}

// escapes reports how many of ids, the ascending ids of line j, the
// encoding escapes.
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

// put encodes ids, the ascending ids of line j, into c's gaps from
// entry p and its escapes from escape e.
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

// newCompact allocates a factor whose lines the pointers ptr and
// escPtr delimit; the caller fills the gaps, escapes and values.
func newCompact(ptr, escPtr []int) *Compact {
	n := len(ptr) - 1
	return &Compact{
		N:      n,
		Ptr:    ptr,
		Gap:    make([]uint8, ptr[n]),
		EscPtr: escPtr,
		Esc:    make([]int32, escPtr[n]),
		Val:    make([]float64, ptr[n]),
	}
}

// Validate checks everything a kernel reads, so a corrupt factor is an
// error and never a fault: both pointer arrays run from 0 to their
// array's length without decreasing, the gaps and values are as many,
// and every line decodes to ids that strictly ascend from its diagonal
// (line j's first id is at least j), stay below N and consume exactly
// the line's escapes. name labels the errors.
func (c *Compact) Validate(name string) error {
	n := c.N
	if len(c.Ptr) != n+1 || c.Ptr[0] != 0 || c.Ptr[n] != len(c.Gap) || len(c.Gap) != len(c.Val) {
		return fmt.Errorf("%s pointers: %d/%d/%d entries for n=%d", name, len(c.Ptr), len(c.Gap), len(c.Val), n)
	}
	if len(c.EscPtr) != n+1 || c.EscPtr[0] != 0 || c.EscPtr[n] != len(c.Esc) {
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
		id, e, end := j-1, c.EscPtr[j], c.EscPtr[j+1]
		for _, g := range c.Gap[c.Ptr[j]:c.Ptr[j+1]] {
			next := id + int(g)
			if g == 0 {
				if e == end {
					return fmt.Errorf("%s line %d escapes more ids than its %d", name, j, end-c.EscPtr[j])
				}
				next, e = int(c.Esc[e]), e+1
				if next <= id {
					return fmt.Errorf("%s line %d escaped id %d does not ascend past %d", name, j, next, id)
				}
			}
			if next >= n {
				return fmt.Errorf("%s line %d id %d outside [0,%d)", name, j, next, n)
			}
			id = next
		}
		if e != end {
			return fmt.Errorf("%s line %d escapes %d ids, %d listed", name, j, e-c.EscPtr[j], end-c.EscPtr[j])
		}
	}
	return nil
}
