package runtime

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Small-domain vertex-state storage: the second half of the memory-lean
// substrate. Many of the paper's algorithms keep per-vertex state whose
// domain is tiny relative to its container — a CC label is one of n
// values (⌈log₂ n⌉ bits, stored as 4-byte VertexIDs), a coreness
// estimate is bounded by the maximum degree, a color by Δ+1 — so a flat
// array wastes most of its bits. PackedInts stores such values at
// ⌈log₂ domain⌉ bits each. The Hash-Min, k-core, and coloring programs
// of internal/vc keep their vertex state in PackedInts stores instead
// of the engine's value array when run with vc.Config.PackedState; the
// message flow is the same program either way, which is what keeps
// packed-state runs byte-identical to dense ones.
//
// Concurrency: engines run vertices of different workers concurrently,
// and with sub-word entries two vertices of different workers can share
// a 64-bit word, so PackedInts.Set is a CAS loop and Get an atomic
// load. Entries never straddle words (the tail bits of each word are
// padding), which is what makes the single-word CAS sufficient.
// Concurrent writers to the SAME index race; engines never do that, as
// only an index's owner writes it.

// PackedInts stores n entries of width ⌈log₂ domain⌉ bits each, packed
// into uint64 words, indexed by int so the same store works per-vertex
// (labels, colors) and per-edge-slot (k-core neighbor estimates).
// Entries never straddle a word boundary: each word holds ⌊64/width⌋
// entries and the remaining bits are padding, so Set is a single-word
// CAS loop — safe when vertices owned by different workers share a
// word — and Get a single atomic load.
type PackedInts struct {
	n     int
	width uint
	perW  int // entries per word
	mask  uint64
	words []uint64
}

// NewPackedInts returns a packed store of n zero entries over
// [0, domain). domain must be at least 1; a domain of 1 still uses one
// bit per entry.
func NewPackedInts(n int, domain uint64) *PackedInts {
	if domain < 1 {
		panic("runtime: PackedInts domain must be >= 1")
	}
	width := uint(bits.Len64(domain - 1))
	if width == 0 {
		width = 1
	}
	perW := 64 / int(width)
	return &PackedInts{
		n:     n,
		width: width,
		perW:  perW,
		mask:  1<<width - 1,
		words: make([]uint64, (n+perW-1)/perW),
	}
}

// Width returns the bits per entry.
func (p *PackedInts) Width() uint { return p.width }

// Get returns entry i.
func (p *PackedInts) Get(i int) uint64 {
	w := i / p.perW
	off := uint(i%p.perW) * p.width
	return atomic.LoadUint64(&p.words[w]) >> off & p.mask
}

// Set stores x as entry i. It panics if x is outside the store's
// domain.
func (p *PackedInts) Set(i int, x uint64) {
	if x&^p.mask != 0 {
		panic(fmt.Sprintf("runtime: PackedInts.Set(%d, %d): value exceeds %d-bit domain", i, x, p.width))
	}
	w := i / p.perW
	off := uint(i%p.perW) * p.width
	for {
		old := atomic.LoadUint64(&p.words[w])
		upd := old&^(p.mask<<off) | x<<off
		if old == upd || atomic.CompareAndSwapUint64(&p.words[w], old, upd) {
			return
		}
	}
}

// Len returns the number of entries.
func (p *PackedInts) Len() int { return p.n }

// SizeBytes returns the retained footprint of the backing array.
func (p *PackedInts) SizeBytes() int { return 8 * len(p.words) }

// Clone returns an independent deep copy (checkpointing).
func (p *PackedInts) Clone() *PackedInts {
	c := *p
	c.words = append([]uint64(nil), p.words...)
	return &c
}

// CopyFrom overwrites p with src's contents; the two stores must have
// the same length and domain.
func (p *PackedInts) CopyFrom(src *PackedInts) { copy(p.words, src.words) }
