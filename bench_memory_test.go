// Memory-lean substrate benchmark: resident edge-array bytes and
// traversal cost of the varint-delta packed CSR against the flat int32
// one, on the R-MAT power-law graph where delta compression pays most
// (the recursive quadrant skew clusters neighbor IDs, so sorted deltas
// are small — uniform-target generators like PreferentialAttachment
// average gap n/degree and land in the 2-byte varint band, ~1.85x;
// R-MAT's locality pushes past the 2x headline). `make
// bench-memory` runs this file; BENCH_memory.json records the numbers
// and declares the edges-per-GB headline (packed holds ≥2x the edges of
// flat in the same budget) plus a conservative floor on the PageRank
// slowdown the block decode is allowed to cost (cmd/benchguard enforces
// both).
//
// The B/op of BenchmarkMemoryCSRBytes is overridden with the snapshot's
// retained EdgeBytes (offsets + destinations + transpose if built) —
// the deterministic numerator of edges-per-GB — so the benchguard
// bytes_op ratio compares resident footprint, not build-time churn.
package vcgraph

import (
	"fmt"
	"testing"

	"vcgraph/internal/graph"
	"vcgraph/internal/vc"
)

func benchMemGraph(enc graph.EdgeEncoding) *graph.Graph {
	g := graph.RMAT(15, 400000, 5)
	g.Encoding = enc
	return g
}

func benchMemEncodings() []struct {
	name string
	enc  graph.EdgeEncoding
} {
	return []struct {
		name string
		enc  graph.EdgeEncoding
	}{
		{"int32", graph.EncodeInt32},
		{"packed", graph.EncodePacked},
	}
}

// BenchmarkMemoryCSRBytes measures snapshot build time (ns/op) and
// resident edge bytes (B/op, via ReportMetric) per representation.
func BenchmarkMemoryCSRBytes(b *testing.B) {
	for _, e := range benchMemEncodings() {
		b.Run(e.name, func(b *testing.B) {
			g := benchMemGraph(e.enc)
			var bytes int
			for i := 0; i < b.N; i++ {
				g.Invalidate() // force a fresh snapshot build each iteration
				c := g.Pin()
				bytes = c.EdgeBytes()
				g.Unpin(c)
			}
			b.ReportMetric(float64(bytes), "B/op")
			b.ReportMetric(0, "allocs/op")
			edges := float64(g.M())
			b.ReportMetric(edges/(float64(bytes)/1e9)/1e6, "Medges/GB")
		})
	}
}

// BenchmarkMemoryPageRank measures the traversal cost the compressed
// representation pays: fixed-K PageRank through the pregel engine whose
// per-worker scratch decodes each block once per span visit.
func BenchmarkMemoryPageRank(b *testing.B) {
	for _, e := range benchMemEncodings() {
		b.Run(e.name, func(b *testing.B) {
			g := benchMemGraph(e.enc)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := vc.PreparePageRank(g, 0.85, 10, vc.Config{Workers: 8})(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMemoryHashMin is the second traversal datapoint: Hash-Min CC
// (with bit-packed labels on the packed representation) — the
// small-domain algorithm the state stores target.
func BenchmarkMemoryHashMin(b *testing.B) {
	for _, e := range benchMemEncodings() {
		packedState := e.enc == graph.EncodePacked
		b.Run(fmt.Sprintf("%s/packedstate-%v", e.name, packedState), func(b *testing.B) {
			g := benchMemGraph(e.enc)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := vc.PrepareHashMinCC(g, vc.Config{Workers: 8, PackedState: packedState})(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
