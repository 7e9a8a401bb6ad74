package vc

import (
	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
	rt "vcgraph/internal/runtime"
)

// Graph coloring via Luby's maximal independent set (Table 1 row 12):
// each color phase extracts one MIS from the still-uncolored vertices
// with Luby's randomized selection — tentative with probability
// 1/(2d(v)), smallest-ID wins among adjacent tentatives — and colors
// it; neighbors of winners sit the rest of the phase out. K phases of
// expected O(log n) supersteps each: balanced but not BPPA.

// ColoringResult holds the vertex colors (0-based) and the number of
// colors used (the paper's K).
type ColoringResult struct {
	Colors []int
	K      int
	Stats  *bsp.Stats
}

const (
	colTent = iota
	colResolve
	colCleanup
)

const (
	colMsgTent int8 = iota
	colMsgWin
)

type colMsg struct {
	Kind int8
	From VertexID
}

type colValue struct {
	color        int
	tentative    bool
	blockedPhase int // the color phase this vertex is blocked for (-1 none)
}

// colProgram keeps each vertex's colValue in the vertex value (dense)
// or in three packed stores (packedColors).
type colProgram[V any, S vertexState[V, colValue]] struct {
	vals  S
	phase int // master: superstep micro-phase
	c     int // master: current color
}

// packedColors holds color and blockedPhase shifted by +1, so the zero
// entry means the dense -1, and tentative as one bit. Colors are
// bounded by Δ+1 — a vertex left uncolored after a phase has a
// neighbor that won that phase's color, and it has at most Δ neighbors
// to lose to — so color and blockedPhase fit in ⌈log₂(Δ+3)⌉ bits.
type packedColors struct{ color, tent, blocked *rt.PackedInts }

// newPackedColoring returns the Config.PackedState program, whose
// colValues live in packedColors.
func newPackedColoring(g *graph.Graph) *colProgram[struct{}, packedColors] {
	n := g.N()
	domain := uint64(maxDegree(g)) + 3 // colors in [0, Δ+1], stored +1, plus "none"
	s := packedColors{
		color:   rt.NewPackedInts(n, domain),
		tent:    rt.NewPackedInts(n, 2),
		blocked: rt.NewPackedInts(n, domain),
	}
	return &colProgram[struct{}, packedColors]{vals: s}
}

func (s packedColors) get(_ *struct{}, id VertexID) colValue {
	i := int(id)
	return colValue{
		color:        int(s.color.Get(i)) - 1,
		tentative:    s.tent.Get(i) == 1,
		blockedPhase: int(s.blocked.Get(i)) - 1,
	}
}

func (s packedColors) stores() packedStores { return packedStores{s.color, s.tent, s.blocked} }

func (s packedColors) set(_ *struct{}, id VertexID, v colValue) {
	i, tent := int(id), uint64(0)
	if v.tentative {
		tent = 1
	}
	s.color.Set(i, uint64(v.color+1))
	s.tent.Set(i, tent)
	s.blocked.Set(i, uint64(v.blockedPhase+1))
}

func (p *colProgram[V, S]) Init(*graph.Graph, VertexID) (v V) { return v }

func (p *colProgram[V, S]) BeforeSuperstep(mc *pregel.MasterContext) {
	if mc.Superstep() > 0 {
		switch p.phase {
		case colTent:
			p.phase = colResolve
		case colResolve:
			p.phase = colCleanup
		case colCleanup:
			uncolored, _ := mc.Agg("uncolored").(int64)
			remaining, _ := mc.Agg("remaining").(int64)
			if uncolored == 0 {
				mc.Halt()
				return
			}
			if remaining == 0 {
				p.c++ // the phase's MIS is maximal: next color
			}
			p.phase = colTent
		}
	}
	mc.SetGlobal("phase", p.phase)
	mc.SetGlobal("color", p.c)
}

func (p *colProgram[V, S]) Compute(ctx *pregel.Context[V, colMsg], msgs []colMsg) {
	val, id := ctx.Value(), ctx.ID()
	v := colValue{color: -1, blockedPhase: -1}
	if ctx.Superstep() > 0 {
		v = p.vals.get(val, id)
	}
	if v.color >= 0 {
		return
	}
	c := ctx.Global("color").(int)
	switch ctx.Global("phase").(int) {
	case colTent:
		v.tentative = false
		if v.blockedPhase == c {
			break
		}
		d := ctx.OutDegree()
		if d == 0 {
			v.color = c // trivial MIS: isolated (or everything around is colored)
			break
		}
		if ctx.Rand().Float64() < 1/(2*float64(d)) {
			v.tentative = true
			ctx.SendToNeighbors(colMsg{Kind: colMsgTent, From: id})
		}
	case colResolve:
		if !v.tentative {
			break
		}
		win := true
		for _, m := range msgs {
			if m.Kind == colMsgTent && m.From < id {
				win = false
				break
			}
		}
		if win {
			v.color = c
			ctx.SendToNeighbors(colMsg{Kind: colMsgWin, From: id})
		}
	case colCleanup:
		if len(msgs) > 0 {
			winners := make(map[VertexID]bool, len(msgs))
			for _, m := range msgs {
				if m.Kind == colMsgWin {
					winners[m.From] = true
				}
			}
			if len(winners) > 0 {
				adj := ctx.OutEdges()
				kept := make([]graph.Edge, 0, len(adj))
				for _, e := range adj {
					if !winners[e.Dst] {
						kept = append(kept, e)
					}
				}
				ctx.Charge(int64(len(adj)))
				ctx.SetOutEdges(kept)
				v.blockedPhase = c
			}
		}
		ctx.Aggregate("uncolored", int64(1))
		if v.blockedPhase != c {
			ctx.Aggregate("remaining", int64(1))
		}
	}
	p.vals.set(val, id, v)
}

func (p *colProgram[V, S]) StateUnits(*V) int64 { return 3 }

// colSnap is one checkpoint generation: the master counters and, for a
// packed run, the stores.
type colSnap struct {
	phase, c int
	packedStores
}

func (p *colProgram[V, S]) SnapshotState() any {
	return colSnap{p.phase, p.c, p.vals.stores().snapshot()}
}

func (p *colProgram[V, S]) RestoreState(s any) {
	snap, _ := s.(colSnap)
	p.phase, p.c = snap.phase, snap.c
	p.vals.stores().restore(snap.packedStores)
}

// ColoringMIS colors the graph with Luby-MIS phases. The result is
// deterministic for a given Config.Seed.
func ColoringMIS(g *graph.Graph, cfg Config) (*ColoringResult, error) {
	if cfg.PackedState {
		return coloringMIS(g, newPackedColoring(g), cfg)
	}
	return coloringMIS(g, &colProgram[colValue, inValue[colValue]]{}, cfg)
}

func coloringMIS[V any, S vertexState[V, colValue]](g *graph.Graph, p *colProgram[V, S], cfg Config) (*ColoringResult, error) {
	eng := pregel.NewEngine[V, colMsg](g, p, engineCfg[colMsg](cfg))
	eng.RegisterAggregator("uncolored", pregel.SumInt64())
	eng.RegisterAggregator("remaining", pregel.SumInt64())
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	out := &ColoringResult{Colors: make([]int, g.N()), K: p.c + 1, Stats: res.Stats}
	for v := range res.Values {
		out.Colors[v] = p.vals.get(&res.Values[v], VertexID(v)).color
	}
	if g.N() == 0 {
		out.K = 0
	}
	return out, nil
}
