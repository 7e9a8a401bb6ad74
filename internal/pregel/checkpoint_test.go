package pregel

import (
	"testing"

	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
)

// ckProgram floods minimum IDs (hash-min style) and carries master
// state (a round counter) to exercise Snapshotter.
type ckProgram struct {
	rounds int // master state
}

func (p *ckProgram) Init(g *graph.Graph, id VertexID) VertexID { return id }

func (p *ckProgram) BeforeSuperstep(mc *MasterContext) { p.rounds++ }

func (p *ckProgram) SnapshotState() any { return p.rounds }

func (p *ckProgram) RestoreState(s any) {
	if s == nil {
		p.rounds = 0
		return
	}
	p.rounds = s.(int)
}

func (p *ckProgram) Compute(ctx *Context[VertexID, VertexID], msgs []VertexID) {
	v := ctx.Value()
	min := *v
	for _, m := range msgs {
		if m < min {
			min = m
		}
	}
	if min < *v || ctx.Superstep() == 0 {
		*v = min
		ctx.SendToNeighbors(*v)
	}
	ctx.VoteToHalt()
}

func runCK(t *testing.T, g *graph.Graph, cfg Config[VertexID]) ([]VertexID, int, int) {
	t.Helper()
	prog := &ckProgram{}
	eng := NewEngine[VertexID, VertexID](g, prog, cfg)
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.Values, res.Supersteps, eng.Recoveries()
}

func TestCheckpointRecoveryMatchesCleanRun(t *testing.T) {
	g := graph.Path(64)
	clean, cleanSS, _ := runCK(t, g, Config[VertexID]{Workers: 3})
	for _, failAt := range []int{1, 5, 17, 40} {
		vals, ss, recov := runCK(t, g, Config[VertexID]{
			Workers: 3,
			RunEnv:  rt.RunEnv{CheckpointEvery: 8, Faults: rt.PlanOf(rt.Crash(failAt))},
		})
		if recov != 1 {
			t.Fatalf("failAt=%d: recoveries=%d, want 1", failAt, recov)
		}
		for v := range clean {
			if vals[v] != clean[v] {
				t.Fatalf("failAt=%d vertex %d: %d != clean %d", failAt, v, vals[v], clean[v])
			}
		}
		// Recovery re-executes supersteps: the run is at least as long.
		if ss < cleanSS {
			t.Fatalf("failAt=%d: recovered run shorter (%d) than clean (%d)", failAt, ss, cleanSS)
		}
	}
}

func TestFailureWithoutCheckpointRestartsFromScratch(t *testing.T) {
	g := graph.Path(32)
	clean, _, _ := runCK(t, g, Config[VertexID]{Workers: 2})
	vals, _, recov := runCK(t, g, Config[VertexID]{Workers: 2, RunEnv: rt.RunEnv{Faults: rt.PlanOf(rt.Crash(9))}})
	if recov != 1 {
		t.Fatalf("recoveries=%d", recov)
	}
	for v := range clean {
		if vals[v] != clean[v] {
			t.Fatalf("vertex %d: %d != %d", v, vals[v], clean[v])
		}
	}
}

// cloneProgram verifies ValueCloner is used for reference-typed values.
type cloneProgram struct{}

type cloneVal struct{ seen []VertexID }

func (cloneProgram) Init(g *graph.Graph, id VertexID) cloneVal { return cloneVal{} }

func (cloneProgram) CloneValue(v cloneVal) cloneVal {
	return cloneVal{seen: append([]VertexID(nil), v.seen...)}
}

func (cloneProgram) Compute(ctx *Context[cloneVal, VertexID], msgs []VertexID) {
	v := ctx.Value()
	for _, m := range msgs {
		v.seen = append(v.seen, m)
	}
	if ctx.Superstep() < 6 {
		ctx.SendToNeighbors(ctx.ID())
		return
	}
	ctx.VoteToHalt()
}

func TestCheckpointDeepCopiesWithValueCloner(t *testing.T) {
	g := graph.Cycle(8)
	run := func(cfg Config[VertexID]) [][]VertexID {
		eng := NewEngine[cloneVal, VertexID](g, cloneProgram{}, cfg)
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]VertexID, len(res.Values))
		for i, v := range res.Values {
			out[i] = v.seen
		}
		return out
	}
	clean := run(Config[VertexID]{Workers: 2})
	recovered := run(Config[VertexID]{Workers: 2, RunEnv: rt.RunEnv{CheckpointEvery: 2, Faults: rt.PlanOf(rt.Crash(5))}})
	for v := range clean {
		if len(clean[v]) != len(recovered[v]) {
			t.Fatalf("vertex %d: %d messages vs %d after recovery", v, len(clean[v]), len(recovered[v]))
		}
	}
}

func TestCheckpointWithMasterStateAndGlobals(t *testing.T) {
	// The ckProgram master increments rounds each superstep; after a
	// rollback the counter must rewind with the computation, so the
	// total is deterministic given the failure point.
	g := graph.Path(16)
	prog := &ckProgram{}
	eng := NewEngine[VertexID, VertexID](g, prog, Config[VertexID]{
		Workers: 2, RunEnv: rt.RunEnv{CheckpointEvery: 4, Faults: rt.PlanOf(rt.Crash(7))},
	})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Recoveries() != 1 {
		t.Fatalf("recoveries = %d", eng.Recoveries())
	}
}
