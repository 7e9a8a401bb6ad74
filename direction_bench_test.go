// Direction-optimizing execution benchmark: the dense-frontier
// workloads (PageRank fixed-K, Hash-Min) plus a combiner-less control
// (k-core, whose messages carry sender identity and therefore cannot be
// pulled) on a 20k-vertex power-law graph, across worker counts and all
// three direction modes. BENCH_direction.json records the committed
// numbers and the push/pull headline ratios the regression guard
// (cmd/benchguard) enforces in CI.
package vcgraph

import (
	"fmt"
	"testing"

	"vcgraph/internal/graph"
	"vcgraph/internal/runtime"
	"vcgraph/internal/vc"
)

// Degree 32 keeps the dense supersteps message-dominated: push pays
// O(m) sender-side combiner folds plus lane materialization and
// delivery per superstep, pull only the O(m) transpose scan.
func benchDirectionGraph() *graph.Graph {
	return graph.PreferentialAttachment(20000, 32, 5)
}

var benchDirectionModes = []struct {
	name string
	mode runtime.DirectionMode
}{
	{"push", runtime.DirectionPush},
	{"pull", runtime.DirectionPull},
	{"auto", runtime.DirectionAuto},
}

func BenchmarkDirection(b *testing.B) {
	g := benchDirectionGraph()
	algos := []struct {
		name string
		run  func(cfg vc.Config) error
	}{
		{"pagerank", func(cfg vc.Config) error {
			_, err := vc.PreparePageRank(g, 0.85, 10, cfg)()
			return err
		}},
		{"hashmin", func(cfg vc.Config) error {
			_, err := vc.PrepareHashMinCC(g, cfg)()
			return err
		}},
		// Control: no combiner, so every mode degenerates to push and
		// the three columns should coincide up to noise.
		{"kcore", func(cfg vc.Config) error {
			_, err := vc.PrepareKCore(g, cfg)()
			return err
		}},
	}
	for _, algo := range algos {
		for _, w := range []int{1, 4, 8} {
			for _, dm := range benchDirectionModes {
				b.Run(fmt.Sprintf("%s/workers-%d/%s", algo.name, w, dm.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if err := algo.run(vc.Config{Workers: w, Mode: dm.mode}); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
