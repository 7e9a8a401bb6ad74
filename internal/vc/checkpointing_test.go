package vc

import (
	"reflect"
	"testing"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
)

// --- CloneValue: a checkpoint must not alias the live run ---
//
// Each case builds a value with populated reference fields, clones it,
// then mutates the ORIGINAL in place. If CloneValue shallow-copied, the
// mutation shows through the clone and the checkpoint is corrupted.

func TestCloneValueDeepCopies(t *testing.T) {
	t.Run("diameter", func(t *testing.T) {
		p := &diamProgram{n: 3}
		orig := diamValue{dist: []int32{0, 2, -1}, seen: 2, ecc: 2}
		c := p.CloneValue(orig)
		orig.dist[1] = 99
		if c.dist[1] != 2 || c.seen != 2 || c.ecc != 2 {
			t.Fatalf("clone aliased original: %+v", c)
		}
	})
	t.Run("betweenness-batch", func(t *testing.T) {
		p := &bcBatchProgram{sources: []VertexID{0, 1}}
		orig := bcBatchValue{
			dist: []int32{0, 3}, sigma: []float64{1, 2},
			delta: []float64{0.5, 0}, pending: []int32{1, 0}, done: []bool{true, false},
		}
		c := p.CloneValue(orig)
		orig.dist[0], orig.sigma[0], orig.delta[0], orig.pending[0], orig.done[0] = 9, 9, 9, 9, false
		if c.dist[0] != 0 || c.sigma[0] != 1 || c.delta[0] != 0.5 || c.pending[0] != 1 || !c.done[0] {
			t.Fatalf("clone aliased original: %+v", c)
		}
	})
	t.Run("bipartite-matching", func(t *testing.T) {
		p := &bpmProgram{nl: 2}
		orig := bpmValue{match: graph.NoVertex, candidates: []VertexID{3, 4}}
		c := p.CloneValue(orig)
		orig.candidates[0] = 7
		if c.candidates[0] != 3 {
			t.Fatal("clone aliased candidates")
		}
	})
	t.Run("triangles", func(t *testing.T) {
		p := &triProgram{}
		orig := triValue{higher: []VertexID{5, 6}, triangles: 1}
		c := p.CloneValue(orig)
		orig.higher[0] = 9
		if c.higher[0] != 5 || c.triangles != 1 {
			t.Fatal("clone aliased higher-neighbor list")
		}
	})
	t.Run("simulation", func(t *testing.T) {
		p := &simProgram{}
		orig := simValue{set: 3, childSets: map[VertexID]uint64{1: 2}, parentSets: map[VertexID]uint64{2: 4}}
		c := p.CloneValue(orig)
		orig.childSets[1] = 99
		orig.parentSets[2] = 99
		if c.childSets[1] != 2 || c.parentSets[2] != 4 || c.set != 3 {
			t.Fatal("clone aliased simulation maps")
		}
	})
	t.Run("euler", func(t *testing.T) {
		orig := eulerValue{succ: map[VertexID]VertexID{1: 2}}
		c := eulerProgram{}.CloneValue(orig)
		orig.succ[1] = 9
		if c.succ[1] != 2 {
			t.Fatal("clone aliased successor map")
		}
	})
	t.Run("kcore", func(t *testing.T) {
		orig := kcoreValue{est: 4, nbrEst: map[VertexID]int32{1: 3}}
		c := kcoreProgram[kcoreValue, kcoreMap]{}.CloneValue(orig)
		orig.nbrEst[1] = 9
		if c.nbrEst[1] != 3 || c.est != 4 {
			t.Fatal("clone aliased neighbor-estimate map")
		}
	})
	t.Run("mcst", func(t *testing.T) {
		p := &mcstProgram{}
		orig := mcstValue{edges: []mcstEdge{{Dst: 1, W: 2, OrigU: 0, OrigV: 1}}, pointer: 0, super: 0}
		c := p.CloneValue(orig)
		orig.edges[0].W = 99
		if c.edges[0].W != 2 {
			t.Fatal("clone aliased contracted edge list")
		}
	})
	t.Run("semicluster", func(t *testing.T) {
		p := &scProgram{}
		orig := scValue{clusters: []SemiCluster{{Members: []VertexID{0, 1}, I: 1, Score: 0.5}}}
		c := p.CloneValue(orig)
		orig.clusters[0].Members[0] = 9
		orig.clusters[0].I = 9
		if c.clusters[0].Members[0] != 0 || c.clusters[0].I != 1 {
			t.Fatal("clone aliased cluster members")
		}
	})
	t.Run("strongsim", func(t *testing.T) {
		p := &ssProgram{}
		rec := ssRecord{IsEdge: true, A: 1, B: 2}
		orig := ssValue{records: map[ssRecord]bool{rec: true}, fresh: []ssRecord{rec}, center: true}
		c := p.CloneValue(orig)
		orig.records[ssRecord{A: 9}] = true
		orig.fresh[0] = ssRecord{A: 9}
		if len(c.records) != 1 || c.fresh[0] != rec || !c.center {
			t.Fatal("clone aliased record set")
		}
	})
}

// --- Snapshotter: master state must rewind with the vertices ---

func TestSnapshotterRoundTrip(t *testing.T) {
	t.Run("sv", func(t *testing.T) {
		p := &svProgram{roundChanged: true,
			edges:     [][2]VertexID{{0, 1}},
			snapshots: [][]VertexID{{0, 0}}}
		snap := p.SnapshotState()
		p.roundChanged = false
		p.edges = append(p.edges, [2]VertexID{2, 3})
		p.snapshots = nil
		p.RestoreState(snap)
		if !p.roundChanged || len(p.edges) != 1 || len(p.snapshots) != 1 {
			t.Fatalf("restore lost state: %+v", p)
		}
		// The same generation may be restored twice: mutating after the
		// first restore must not leak into the stored snapshot.
		p.edges[0] = [2]VertexID{8, 9}
		p.RestoreState(snap)
		if p.edges[0] != [2]VertexID{0, 1} {
			t.Fatal("snapshot aliased restored state")
		}
		p.RestoreState(nil)
		if p.roundChanged || p.edges != nil || p.snapshots != nil {
			t.Fatalf("Restore(nil) did not reset: %+v", p)
		}
	})
	t.Run("mcst", func(t *testing.T) {
		p := &mcstProgram{phase: 2, picked: []pickedEdge{{U: 0, V: 1, W: 3}}}
		snap := p.SnapshotState()
		p.phase = 0
		p.picked = append(p.picked, pickedEdge{U: 4, V: 5})
		p.RestoreState(snap)
		if p.phase != 2 || len(p.picked) != 1 {
			t.Fatalf("restore lost state: %+v", p)
		}
		p.picked[0].W = 99
		p.RestoreState(snap)
		if p.picked[0].W != 3 {
			t.Fatal("snapshot aliased restored state")
		}
		p.RestoreState(nil)
		if p.phase != 0 || p.picked != nil {
			t.Fatalf("Restore(nil) did not reset: %+v", p)
		}
	})
	t.Run("int-phase-programs", func(t *testing.T) {
		type intSnap interface {
			SnapshotState() any
			RestoreState(any)
		}
		cases := []struct {
			name string
			prog intSnap
			set  func(int)
			get  func() int
		}{}
		bc := &bcProgram{}
		cases = append(cases, struct {
			name string
			prog intSnap
			set  func(int)
			get  func() int
		}{"bc", bc, func(v int) { bc.mode = v }, func() int { return bc.mode }})
		bcb := &bcBatchProgram{}
		cases = append(cases, struct {
			name string
			prog intSnap
			set  func(int)
			get  func() int
		}{"bcBatch", bcb, func(v int) { bcb.mode = v }, func() int { return bcb.mode }})
		mwm := &mwmProgram{}
		cases = append(cases, struct {
			name string
			prog intSnap
			set  func(int)
			get  func() int
		}{"mwm", mwm, func(v int) { mwm.phase = v }, func() int { return mwm.phase }})
		bpm := &bpmProgram{}
		cases = append(cases, struct {
			name string
			prog intSnap
			set  func(int)
			get  func() int
		}{"bpm", bpm, func(v int) { bpm.phase = v }, func() int { return bpm.phase }})
		mis := &misProgram{}
		cases = append(cases, struct {
			name string
			prog intSnap
			set  func(int)
			get  func() int
		}{"mis", mis, func(v int) { mis.phase = v }, func() int { return mis.phase }})
		scc := &sccProgram{}
		cases = append(cases, struct {
			name string
			prog intSnap
			set  func(int)
			get  func() int
		}{"scc", scc, func(v int) { scc.phase = v }, func() int { return scc.phase }})
		for _, tc := range cases {
			tc.set(2)
			snap := tc.prog.SnapshotState()
			tc.set(5)
			tc.prog.RestoreState(snap)
			if tc.get() != 2 {
				t.Fatalf("%s: restore got %d, want 2", tc.name, tc.get())
			}
			tc.prog.RestoreState(nil)
			if tc.get() != 0 {
				t.Fatalf("%s: Restore(nil) got %d, want 0", tc.name, tc.get())
			}
		}
	})
	t.Run("coloring", func(t *testing.T) {
		p := &colProgram[colValue, inValue[colValue]]{phase: 1, c: 3}
		snap := p.SnapshotState()
		p.phase, p.c = 2, 7
		p.RestoreState(snap)
		if p.phase != 1 || p.c != 3 {
			t.Fatalf("restore lost state: %+v", p)
		}
		p.RestoreState(nil)
		if p.phase != 0 || p.c != 0 {
			t.Fatalf("Restore(nil) did not reset: %+v", p)
		}
	})
	t.Run("hits", func(t *testing.T) {
		p := &hitsProgram{k: 5, norm: 1.25}
		snap := p.SnapshotState()
		p.norm = 9
		p.RestoreState(snap)
		if p.norm != 1.25 || p.k != 5 {
			t.Fatalf("restore lost state: %+v", p)
		}
		p.RestoreState(nil)
		if p.norm != 0 || p.k != 5 {
			t.Fatalf("Restore(nil) touched config or kept norm: %+v", p)
		}
	})
}

// --- End-to-end: crash + rollback must reproduce the clean run ---
//
// Every algorithm audited for checkpoint aliasing runs twice: once
// clean, once with a checkpoint every 2 supersteps and a crash at
// superstep 3 (one past a checkpoint boundary, so the rollback has real
// work to redo). The recovered run must produce byte-identical payloads.
// Before the CloneValue/Snapshotter implementations in checkpointing.go
// these diverged (aliased checkpoints, master state marching ahead).

func TestCrashRecoveryMatchesCleanRun(t *testing.T) {
	cases := []struct {
		name    string
		crashAt int // 0 = superstep 3 (one past a checkpoint boundary)
		run     func(cfg Config) (any, *bsp.Stats, error)
	}{
		{name: "diameter", run: func(cfg Config) (any, *bsp.Stats, error) {
			res, err := Diameter(graph.Grid(6, 6), cfg)
			if err != nil {
				return nil, nil, err
			}
			return struct {
				Ecc  []int32
				D    int32
				Dist [][]int32
			}{res.Ecc, res.Diameter, res.Dist}, res.Stats, nil
		}},
		{name: "kcore", run: func(cfg Config) (any, *bsp.Stats, error) {
			res, err := PrepareKCore(graph.Random(80, 200, 5), cfg)()
			if err != nil {
				return nil, nil, err
			}
			return struct {
				Core []int32
				D    int32
			}{res.Core, res.Degeneracy}, res.Stats, nil
		}},
		{name: "triangles", run: func(cfg Config) (any, *bsp.Stats, error) {
			res, err := Triangles(graph.Random(60, 150, 7), cfg)
			if err != nil {
				return nil, nil, err
			}
			return struct {
				Per   []int64
				Total int64
				Clust []float64
			}{res.PerVertex, res.Total, res.Clustering}, res.Stats, nil
		}},
		{name: "semiclustering", run: func(cfg Config) (any, *bsp.Stats, error) {
			g := graph.RandomConnected(60, 180, 5)
			graph.RandomWeights(g, 6)
			res, err := SemiClustering(g, SemiClusterConfig{CMax: 2, MMax: 4, Iterations: 6}, cfg)
			if err != nil {
				return nil, nil, err
			}
			return struct {
				Per [][]SemiCluster
				Top []SemiCluster
			}{res.PerVertex, res.Top}, res.Stats, nil
		}},
		{name: "mcst", run: func(cfg Config) (any, *bsp.Stats, error) {
			g := graph.RandomConnected(120, 400, 1)
			graph.RandomWeights(g, 51)
			res, err := MCST(g, cfg)
			if err != nil {
				return nil, nil, err
			}
			return struct {
				Edges  []graph.UndirectedEdge
				Weight float64
			}{res.Edges, res.Weight}, res.Stats, nil
		}},
		{name: "svcc", run: func(cfg Config) (any, *bsp.Stats, error) {
			res, err := SVCC(graph.Random(100, 150, 3), cfg)
			if err != nil {
				return nil, nil, err
			}
			return struct {
				Color []VertexID
				Tree  []graph.UndirectedEdge
			}{res.Color, res.TreeEdges}, res.Stats, nil
		}},
		{name: "scc", run: func(cfg Config) (any, *bsp.Stats, error) {
			res, err := SCC(graph.RandomDirected(80, 240, 4), cfg)
			if err != nil {
				return nil, nil, err
			}
			return res.Comp, res.Stats, nil
		}},
		{name: "hits", run: func(cfg Config) (any, *bsp.Stats, error) {
			res, err := HITS(graph.RandomDirected(80, 240, 4), 10, cfg)
			if err != nil {
				return nil, nil, err
			}
			return struct{ Hub, Auth []float64 }{res.Hub, res.Auth}, res.Stats, nil
		}},
		{name: "bipartite-matching", run: func(cfg Config) (any, *bsp.Stats, error) {
			res, err := BipartiteMatching(graph.RandomBipartite(40, 35, 150, 2), 40, cfg)
			if err != nil {
				return nil, nil, err
			}
			return res.Match, res.Stats, nil
		}},
		{name: "max-weight-matching", run: func(cfg Config) (any, *bsp.Stats, error) {
			g := graph.Random(80, 200, 6)
			graph.RandomWeights(g, 7)
			res, err := MaxWeightMatching(g, cfg)
			if err != nil {
				return nil, nil, err
			}
			return struct {
				Match  []VertexID
				Weight float64
			}{res.Match, res.Weight}, res.Stats, nil
		}},
		{name: "mis", run: func(cfg Config) (any, *bsp.Stats, error) {
			res, err := MaximalIndependentSet(graph.Random(100, 300, 8), cfg)
			if err != nil {
				return nil, nil, err
			}
			return struct {
				In   []bool
				Size int
			}{res.InSet, res.Size}, res.Stats, nil
		}},
		{name: "coloring", run: func(cfg Config) (any, *bsp.Stats, error) {
			res, err := ColoringMIS(graph.Random(100, 300, 9), cfg)
			if err != nil {
				return nil, nil, err
			}
			return struct {
				Colors []int
				K      int
			}{res.Colors, res.K}, res.Stats, nil
		}},
		// EulerTour converges in O(1) supersteps: crash before the first
		// checkpoint exists, exercising the fresh-restart path.
		{name: "euler", crashAt: 1, run: func(cfg Config) (any, *bsp.Stats, error) {
			res, err := EulerTour(graph.RandomTree(120, 17), cfg)
			if err != nil {
				return nil, nil, err
			}
			return res.Succ, res.Stats, nil
		}},
		// listrank was named in the aliasing audit: its V is plain
		// (sum, pred) and the program slices are read-only inputs, so
		// no CloneValue is needed — this case pins that conclusion.
		{name: "listrank", run: func(cfg Config) (any, *bsp.Stats, error) {
			const n = 200
			pred := make([]VertexID, n)
			val := make([]int64, n)
			pred[0] = graph.NoVertex
			for i := 1; i < n; i++ {
				pred[i] = VertexID(i - 1)
				val[i] = int64(i)
			}
			res, err := ListRank(pred, val, cfg)
			if err != nil {
				return nil, nil, err
			}
			return res.Sum, res.Stats, nil
		}},
		{name: "graph-simulation", run: func(cfg Config) (any, *bsp.Stats, error) {
			res, err := GraphSimulation(labeledData(120, 500, 1), randomQuery(4, 31), cfg)
			if err != nil {
				return nil, nil, err
			}
			return res.Match, res.Stats, nil
		}},
		{name: "strong-simulation", run: func(cfg Config) (any, *bsp.Stats, error) {
			res, err := StrongSimulation(labeledData(80, 240, 1), randomQuery(3, 41), cfg)
			if err != nil {
				return nil, nil, err
			}
			return struct {
				Centers []bool
				Dual    []uint64
			}{res.Centers, res.Dual}, res.Stats, nil
		}},
		{name: "betweenness-shared", run: func(cfg Config) (any, *bsp.Stats, error) {
			res, err := BetweennessShared(graph.Grid(8, 8), []VertexID{0, 7, 21, 42, 63}, cfg)
			if err != nil {
				return nil, nil, err
			}
			return res.BC, res.Stats, nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			clean, cleanStats, err := tc.run(Config{Workers: 3, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if cleanStats.Recovery.Faulted() {
				t.Fatalf("clean run reported faults: %+v", cleanStats.Recovery)
			}
			crashAt := tc.crashAt
			if crashAt == 0 {
				crashAt = 3
			}
			got, stats, err := tc.run(Config{Workers: 3, Seed: 5,
				RunEnv: rt.RunEnv{CheckpointEvery: 2, Faults: rt.PlanOf(rt.Crash(crashAt))}})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, clean) {
				t.Fatalf("recovered run diverged from clean run\nclean: %+v\ngot:   %+v", clean, got)
			}
			rec := stats.Recovery
			if rec.Rollbacks == 0 || rec.RedoneSupersteps == 0 || rec.CheckpointsSaved == 0 {
				t.Fatalf("crash did not exercise recovery: %+v", rec)
			}
		})
	}
}
