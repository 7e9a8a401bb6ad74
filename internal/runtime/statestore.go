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
// array wastes most of its bits. StateStore abstracts the storage so a
// program variant can swap the flat array for a bit-packed one without
// changing its message flow, which is what keeps packed-state runs
// byte-identical to dense ones. The implementation lives here in the
// shared runtime; internal/vc, whose pregel programs are the only
// packed variants, re-exports it as the algorithm-facing surface.
//
// Concurrency: engines run vertices of different workers concurrently,
// and with sub-word entries two vertices of different workers can share
// a 64-bit word, so PackedInts.Set is a CAS loop and Get an atomic
// load. Entries never straddle words (the tail bits of each word are
// padding), which is what makes the single-word CAS sufficient.

// StateStore is a fixed-length array of small unsigned integers,
// indexed by int so the same store works per-vertex (labels, colors)
// and per-edge-slot (k-core neighbor estimates). Implementations are
// safe for concurrent use on different indices; concurrent writers to
// the SAME index race (engines never do that — only an index's owner
// writes it).
type StateStore interface {
	// Get returns entry i.
	Get(i int) uint64
	// Set stores x as entry i. Panics if x is outside the store's
	// domain.
	Set(i int, x uint64)
	// Len returns the number of entries.
	Len() int
	// SizeBytes returns the retained footprint of the backing array.
	SizeBytes() int
	// Clone returns an independent deep copy (checkpointing).
	Clone() StateStore
	// CopyFrom overwrites this store with src's contents. The stores
	// must have the same length and type (double-buffer barrier swaps).
	CopyFrom(src StateStore)
}

// NewStateStore returns a store for n entries over [0, domain): a
// bit-packed store when packed is set, the flat 8-byte reference store
// otherwise.
func NewStateStore(packed bool, n int, domain uint64) StateStore {
	if packed {
		return NewPackedInts(n, domain)
	}
	return NewDenseStore(n)
}

// DenseStore is the flat reference implementation: one uint64 per
// entry, no packing. It is what packed runs are differential-tested
// against.
type DenseStore struct {
	vals []uint64
}

// NewDenseStore returns a flat store of n zero entries.
func NewDenseStore(n int) *DenseStore { return &DenseStore{vals: make([]uint64, n)} }

func (d *DenseStore) Get(i int) uint64    { return atomic.LoadUint64(&d.vals[i]) }
func (d *DenseStore) Set(i int, x uint64) { atomic.StoreUint64(&d.vals[i], x) }
func (d *DenseStore) Len() int            { return len(d.vals) }
func (d *DenseStore) SizeBytes() int      { return 8 * len(d.vals) }

func (d *DenseStore) Clone() StateStore {
	return &DenseStore{vals: append([]uint64(nil), d.vals...)}
}

func (d *DenseStore) CopyFrom(src StateStore) { copy(d.vals, src.(*DenseStore).vals) }

// PackedInts stores n entries of width ⌈log₂ domain⌉ bits each, packed
// into uint64 words. Entries never straddle a word boundary: each word
// holds ⌊64/width⌋ entries and the remaining bits are padding, so Set
// is a single-word CAS loop — safe when vertices owned by different
// workers share a word — and Get a single atomic load.
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

func (p *PackedInts) Get(i int) uint64 {
	w := i / p.perW
	off := uint(i%p.perW) * p.width
	return atomic.LoadUint64(&p.words[w]) >> off & p.mask
}

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

func (p *PackedInts) Len() int       { return p.n }
func (p *PackedInts) SizeBytes() int { return 8 * len(p.words) }

func (p *PackedInts) Clone() StateStore {
	c := *p
	c.words = append([]uint64(nil), p.words...)
	return &c
}

func (p *PackedInts) CopyFrom(src StateStore) { copy(p.words, src.(*PackedInts).words) }
