// Incremental-vs-recompute benchmarks on an evolving power-law graph
// (BENCH_incremental.json; cmd/benchguard enforces the SSSP and
// insert-only CC headlines). Each algorithm is measured from scratch
// (cold incremental run — the canonical recompute) and warm after
// seeded mutation batches of 4 and 64; batch application and state
// bookkeeping happen off the timer, so the measurement is exactly the
// incremental repair a serving daemon would pay per mutation batch.
package vcgraph

import (
	"math/rand"
	"testing"

	"vcgraph/internal/graph"
	"vcgraph/internal/vc"
)

const (
	incBenchN = 30000
	incBenchM = 3 // preferential-attachment degree
)

// incBench owns the evolving graph and a live-edge multiset so every
// generated batch validates (deletes always hit an existing edge).
type incBench struct {
	g    *graph.Graph
	rng  *rand.Rand
	live [][2]graph.VertexID
}

func newIncBench(b *testing.B) *incBench {
	b.Helper()
	g := graph.PreferentialAttachment(incBenchN, incBenchM, 7)
	graph.RandomWeights(g, 8)
	ib := &incBench{g: g, rng: rand.New(rand.NewSource(42))}
	c := g.Pin()
	defer g.Unpin(c)
	for u := 0; u < g.N(); u++ {
		c.ForEachOut(graph.VertexID(u), func(v graph.VertexID, _ float64) {
			if graph.VertexID(u) <= v {
				ib.live = append(ib.live, [2]graph.VertexID{graph.VertexID(u), v})
			}
		})
	}
	return ib
}

// step applies one batch of k mutations (inserts biased 55/45, or
// insert-only for the CC merge-path headline).
func (ib *incBench) step(b *testing.B, k int, insertOnly bool) {
	b.Helper()
	muts := make([]graph.Mutation, 0, k)
	for i := 0; i < k; i++ {
		if insertOnly || ib.rng.Intn(100) < 55 || len(ib.live) == 0 {
			u := graph.VertexID(ib.rng.Intn(ib.g.N()))
			v := graph.VertexID(ib.rng.Intn(ib.g.N()))
			if u == v {
				v = (v + 1) % graph.VertexID(ib.g.N())
			}
			muts = append(muts, graph.Mutation{Op: graph.InsertEdge, U: u, V: v, W: 0.5 + 3*ib.rng.Float64()})
			ib.live = append(ib.live, [2]graph.VertexID{u, v})
		} else {
			j := ib.rng.Intn(len(ib.live))
			muts = append(muts, graph.Mutation{Op: graph.DeleteEdge, U: ib.live[j][0], V: ib.live[j][1]})
			ib.live = append(ib.live[:j], ib.live[j+1:]...)
		}
	}
	if _, err := ib.g.ApplyMutations(muts); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkIncrementalSSSP(b *testing.B) {
	warm := func(batch int) func(*testing.B) {
		return func(b *testing.B) {
			ib := newIncBench(b)
			st, _, err := vc.IncrementalSSSP(ib.g, 0, nil, vc.IncConfig{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ib.step(b, batch, false)
				b.StartTimer()
				st, _, err = vc.IncrementalSSSP(ib.g, 0, st, vc.IncConfig{})
				if err != nil {
					b.Fatal(err)
				}
				if st.Cold {
					b.Fatal("warm run fell back to cold")
				}
			}
		}
	}
	b.Run("scratch", func(b *testing.B) {
		ib := newIncBench(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := vc.IncrementalSSSP(ib.g, 0, nil, vc.IncConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch4", warm(4))
	b.Run("batch64", warm(64))
}

func BenchmarkIncrementalCC(b *testing.B) {
	warm := func(batch int, insertOnly bool) func(*testing.B) {
		return func(b *testing.B) {
			ib := newIncBench(b)
			st, _, err := vc.IncrementalCC(ib.g, nil, vc.IncConfig{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ib.step(b, batch, insertOnly)
				b.StartTimer()
				st, _, err = vc.IncrementalCC(ib.g, st, vc.IncConfig{})
				if err != nil {
					b.Fatal(err)
				}
				if st.Cold {
					b.Fatal("warm run fell back to cold")
				}
			}
		}
	}
	b.Run("scratch", func(b *testing.B) {
		ib := newIncBench(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := vc.IncrementalCC(ib.g, nil, vc.IncConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("insert4", warm(4, true))
	b.Run("batch4", warm(4, false))
	b.Run("batch64", warm(64, false))
}

func BenchmarkIncrementalPageRank(b *testing.B) {
	const alpha, k = 0.85, 30
	warm := func(batch int) func(*testing.B) {
		return func(b *testing.B) {
			ib := newIncBench(b)
			st, _, err := vc.PrepareIncrementalPageRank(ib.g, alpha, k, nil, vc.IncConfig{})()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ib.step(b, batch, false)
				b.StartTimer()
				st, _, err = vc.PrepareIncrementalPageRank(ib.g, alpha, k, st, vc.IncConfig{})()
				if err != nil {
					b.Fatal(err)
				}
				if st.Cold {
					b.Fatal("warm run fell back to cold")
				}
			}
		}
	}
	b.Run("scratch", func(b *testing.B) {
		ib := newIncBench(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := vc.PrepareIncrementalPageRank(ib.g, alpha, k, nil, vc.IncConfig{})(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch4", warm(4))
	b.Run("batch64", warm(64))
}
