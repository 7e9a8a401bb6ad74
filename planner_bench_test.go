// Adaptive plan layer benchmark: the planner-driven "auto" engine
// against fixed engine choices on the two workloads with the clearest
// committed story — connected components on a long path, where the
// planner's block-centric pick collapses Θ(n) supersteps and beats the
// worst fixed engine by well over the 1.5x acceptance bar, and fixed-K
// PageRank on a power-law graph, where auto must stay within 10% of
// the best fixed configuration (it picks the same GAS engine, paying
// only the sampling overhead). BENCH_planner.json records the
// committed numbers and the two headline ratios cmd/benchguard
// enforces in CI.
package vcgraph

import (
	"testing"

	"vcgraph/internal/graph"
	"vcgraph/internal/plan"
	"vcgraph/internal/vc"
)

// fixedScript forces the auto harness onto one plan for the whole run,
// so fixed-engine baselines carry the identical orchestration overhead
// and the measured gap is purely the plan choice.
func fixedScript(p plan.Plan) []plan.Decision {
	return []plan.Decision{{Plan: p, Reason: "fixed"}}
}

func BenchmarkPlanner(b *testing.B) {
	ccGraph := graph.Path(4096)
	prGraph := graph.PreferentialAttachment(4000, 3, 31)
	cfg := vc.Config{Workers: 4}

	runCC := func(b *testing.B, script []plan.Decision) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := vc.PrepareAutoHashMinCC(ccGraph, vc.AutoConfig{Config: cfg, Script: script})(); err != nil {
				b.Fatal(err)
			}
		}
	}
	runPR := func(b *testing.B, script []plan.Decision) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := vc.PrepareAutoPageRank(prGraph, 0.85, 20, vc.AutoConfig{Config: cfg, Script: script})(); err != nil {
				b.Fatal(err)
			}
		}
	}

	// CC on a 4096-vertex path: the planner picks block-centric (5
	// supersteps); the worst fixed engine is pregel Hash-Min (4096).
	b.Run("ccpath/auto", func(b *testing.B) { runCC(b, nil) })
	b.Run("ccpath/fixed-pregel", func(b *testing.B) {
		runCC(b, fixedScript(plan.Plan{Engine: plan.EnginePregel, Partition: plan.PartitionHash, Mode: "auto"}))
	})
	b.Run("ccpath/fixed-blockcentric", func(b *testing.B) {
		runCC(b, fixedScript(plan.Plan{Engine: plan.EngineBlockcentric, Partition: plan.PartitionRange, Mode: "auto"}))
	})

	// Fixed-K PageRank on power-law: every engine runs the same 20
	// iterations, and the best fixed choice is GAS — which is what the
	// planner picks, so auto tracks it up to the sampling pass.
	b.Run("prpowerlaw/auto", func(b *testing.B) { runPR(b, nil) })
	b.Run("prpowerlaw/fixed-gas", func(b *testing.B) {
		runPR(b, fixedScript(plan.Plan{Engine: plan.EngineGAS, Partition: plan.PartitionHash, Mode: "auto"}))
	})
	b.Run("prpowerlaw/fixed-blockcentric", func(b *testing.B) {
		runPR(b, fixedScript(plan.Plan{Engine: plan.EngineBlockcentric, Partition: plan.PartitionRange, Mode: "auto"}))
	})
}