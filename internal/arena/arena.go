// Package arena holds the pointer-free list storage shared by the DCG and
// the data graph: an 8-byte list header (Cell) and a power-of-two block
// arena (Pool) behind it.
//
// A list of length 0 or 1 lives in its cell; a longer one is a block of
// capacity 1<<k carved from one flat slice and recycled through per-class
// free lists. A list moves up a class when its block is full and down a
// class when a block of capacity >= 16 is three quarters empty (the 4-to-1
// trigger against the 2-to-1 new capacity keeps churn around a stable
// length from thrashing); a list that drains to one entry goes back into
// its cell. No list is a heap object of its own, so the collector has
// nothing to trace and churn allocates nothing once the free lists have
// reached their working size.
package arena

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// Cell is the header of one list: N packs len<<7 | class<<2 | tag. Class 0
// is the inline form (len <= 1): A holds the single entry, and the two tag
// bits are the owner's (the DCG keeps an edge state there). Class k >= 1 is
// a block of capacity 1<<k at arena offset A[0], holding len >= 2 entries.
// A is an array so that an inline entry can be returned as a slice. An
// owner may also use a Cell as a raw pair of words (the DCG's block
// headers do).
type Cell[V ~uint32] struct {
	A [1]V
	N uint32
}

const (
	// TagMask selects the owner's bits of N.
	TagMask    = 3
	classShift = 2
	classMask  = 31
	lenShift   = 7
	// MaxClass is the largest block class: a full block of it still fits
	// the 25-bit length.
	MaxClass = 31 - lenShift
	// ShrinkMin is the smallest class (capacity 16) whose block moves down
	// a class when three quarters empty.
	ShrinkMin = 4
)

// Len returns the number of entries of c's list.
func (c Cell[V]) Len() int { return int(c.N >> lenShift) }

// Class returns c's block class, 0 for an inline cell.
func (c Cell[V]) Class() uint32 { return c.N >> classShift & classMask }

// Inline returns the inline cell holding the single entry x, with the
// owner's tag bits.
func Inline[V ~uint32](x V, tag uint32) Cell[V] {
	return Cell[V]{A: [1]V{x}, N: 1<<lenShift | tag}
}

func blockCell[V ~uint32](off uint32, n int, k uint32) Cell[V] {
	return Cell[V]{A: [1]V{V(off)}, N: uint32(n)<<lenShift | k<<classShift}
}

// Pool is the arena behind the lists of one kind: blocks of capacity 1<<k
// carved from data, released blocks kept on free[k]. The zero value is an
// empty pool.
type Pool[V ~uint32, T any] struct {
	data []T
	free [MaxClass + 1][]uint32
}

// List returns the entries of block cell c.
//
//tf:hotpath
func (p *Pool[V, T]) List(c Cell[V]) []T {
	off, n := int(c.A[0]), int(c.N>>lenShift) // not c.Len(): keeps callers under the inlining budget
	return p.data[off : off+n : off+n]
}

// Block returns the n entries of the block at off. For owners that keep
// their own header instead of a Cell.
//
//tf:hotpath
func (p *Pool[V, T]) Block(off uint32, n int) []T {
	return p.data[off : int(off)+n : int(off)+n]
}

// Alloc returns the offset of a block of capacity 1<<k, from the free list
// when one is there. A fresh block's entries are zero; a recycled one's
// hold what its last owner left.
//
//tf:hotpath
func (p *Pool[V, T]) Alloc(k uint32) uint32 {
	if k > MaxClass {
		panic("arena: a list outgrew 1<<24 entries")
	}
	if f := p.free[k]; len(f) > 0 {
		p.free[k] = f[:len(f)-1]
		return f[len(f)-1]
	}
	off := len(p.data)
	if uint64(off)+1<<k > math.MaxUint32 {
		panic("arena: an arena outgrew its 32-bit offsets")
	}
	p.data = append(p.data, make([]T, 1<<k)...)
	return uint32(off)
}

// Release puts the block of class k at off on its free list.
//
//tf:hotpath
func (p *Pool[V, T]) Release(off, k uint32) { p.free[k] = append(p.free[k], off) }

// Move copies the first n entries of the block of class k at off into a
// new block of class to, releases the old one and returns the new offset.
//
//tf:hotpath
func (p *Pool[V, T]) Move(off uint32, n int, k, to uint32) uint32 {
	nb := p.Alloc(to)
	copy(p.data[nb:], p.data[off:int(off)+n])
	p.Release(off, k)
	return nb
}

// Insert puts x at position idx of c's non-empty list. inl is the entry
// an inline c holds, which only the caller can unpack.
//
//tf:hotpath
func (p *Pool[V, T]) Insert(c *Cell[V], idx int, x, inl T) {
	n, k := c.Len(), c.Class()
	if k == 0 {
		off := p.Alloc(1)
		p.data[int(off)+idx], p.data[int(off)+1-idx] = x, inl
		*c = blockCell[V](off, 2, 1)
		return
	}
	off := uint32(c.A[0])
	if n == 1<<k {
		to := p.Alloc(k + 1)
		copy(p.data[to:], p.data[off:int(off)+idx])
		copy(p.data[int(to)+idx+1:], p.data[int(off)+idx:int(off)+n])
		p.Release(off, k)
		off, k = to, k+1
	} else {
		l := p.data[off : int(off)+n+1]
		copy(l[idx+1:], l[idx:])
	}
	p.data[int(off)+idx] = x
	*c = blockCell[V](off, n+1, k)
}

// Remove deletes position idx of block cell c, keeping the order of the
// rest. When one entry is left the block is released and the entry
// returned for the caller to pack inline.
//
//tf:hotpath
func (p *Pool[V, T]) Remove(c *Cell[V], idx int) (last T, inline bool) {
	n, k, off := c.Len(), c.Class(), uint32(c.A[0])
	l := p.data[off : int(off)+n]
	copy(l[idx:], l[idx+1:])
	n--
	switch {
	case n == 1:
		p.Release(off, k)
		return l[0], true
	case k >= ShrinkMin && n*4 <= 1<<k:
		off, k = p.Move(off, n, k, k-1), k-1
	}
	*c = blockCell[V](off, n, k)
	return last, false
}

// Entries returns the number of entries the arena has carved, free or not.
func (p *Pool[V, T]) Entries() int { return len(p.data) }

// Clone returns a deep copy of p: the same blocks at the same offsets.
func (p *Pool[V, T]) Clone() Pool[V, T] {
	c := Pool[V, T]{data: slices.Clone(p.data)}
	for k, f := range p.free {
		c.free[k] = slices.Clone(f)
	}
	return c
}

// HeldBytes returns the bytes of the arena and its free lists.
func (p *Pool[V, T]) HeldBytes() int64 {
	b := SliceBytes(p.data)
	for _, f := range p.free {
		b += SliceBytes(f)
	}
	return b
}

// SliceBytes returns the bytes of s's backing array.
func SliceBytes[T any](s []T) int64 {
	var z T
	return int64(cap(s)) * int64(unsafe.Sizeof(z))
}

// Span is one arena block as Validate accounts for it.
type Span struct{ Off, Size uint32 }

// Validate checks that owned (the blocks the owner's headers point at) and
// the free lists tile the arena exactly: every block owned once or free
// once, no overlap, nothing lost. name labels the arena in the error.
func (p *Pool[V, T]) Validate(name string, owned []Span) error {
	for k, f := range p.free {
		for _, off := range f {
			owned = append(owned, Span{off, 1 << k})
		}
	}
	slices.SortFunc(owned, func(a, b Span) int { return cmp.Compare(a.Off, b.Off) })
	next := uint64(0)
	for _, b := range owned {
		if uint64(b.Off) != next {
			return fmt.Errorf("%s arena: block [%d,+%d) where offset %d was due (overlap, double ownership or leak)", name, b.Off, b.Size, next)
		}
		next += uint64(b.Size)
	}
	if next != uint64(len(p.data)) {
		return fmt.Errorf("%s arena: owned + free blocks end at %d, arena at %d", name, next, len(p.data))
	}
	return nil
}

// CheckCell checks the header invariants of one list cell and returns its
// block, if it owns one (a zero Span otherwise).
func CheckCell[V ~uint32](c Cell[V]) (Span, error) {
	n, k := c.Len(), c.Class()
	switch {
	case k == 0 && n > 1:
		return Span{}, fmt.Errorf("inline cell of length %d", n)
	case k == 0 && n == 0 && c != (Cell[V]{}):
		return Span{}, fmt.Errorf("empty cell not zeroed: %+v", c)
	case k > MaxClass || k != 0 && (n < 2 || n > 1<<k):
		return Span{}, fmt.Errorf("block cell of class %d holds %d entries", k, n)
	case k != 0:
		return Span{uint32(c.A[0]), 1 << k}, nil
	}
	return Span{}, nil
}
