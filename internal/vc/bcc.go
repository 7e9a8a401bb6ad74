package vc

import (
	"fmt"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
)

// Biconnected components (Table 1 row 5): the Tarjan–Vishkin
// construction as composed by Yan et al. from the library's other
// vertex-centric building blocks:
//
//  1. spanning tree by Shiloach–Vishkin (hook-edge recording),
//  2. rooting, preorder numbers and subtree sizes by the Euler-tour +
//     list-ranking pipeline of row 9,
//  3. low/high subtree extrema by message waves up the tree,
//  4. the Tarjan–Vishkin auxiliary graph over the tree edges, whose
//     connected components — found with Hash-Min — are exactly the
//     biconnected components of the input.
//
// Stage 3 propagates child reports up the tree in O(depth) supersteps
// (Tarjan–Vishkin do this with O(log n) tree contraction; the verdicts
// measured by the harness are unchanged — see DESIGN.md §5). Every
// stage's BSP statistics are merged into the result.

// BCCResult assigns a component label to every undirected edge
// (canonical U < V keys). Labels are arbitrary ints, consistent within
// a component.
type BCCResult struct {
	EdgeComp      map[[2]VertexID]int
	NumComponents int
	Stats         *bsp.Stats
}

const (
	bccPre int8 = iota
	bccReport
)

type bccMsg struct {
	Kind      int8
	From      VertexID
	Pre       int32
	Low, High int32
}

type bccValue struct {
	low, high int32
	pending   int // children yet to report
	reported  bool
}

// bccLowHigh is the stage-3 program: compute per-vertex bases from
// neighbor preorders, then wave (low, high) reports from the leaves up.
type bccLowHigh struct {
	pre      []int32
	parent   []VertexID
	children []int32 // number of tree children
	isTree   map[[2]VertexID]bool
}

func (p *bccLowHigh) Init(g *graph.Graph, id VertexID) bccValue {
	return bccValue{low: -1, high: -1}
}

func (p *bccLowHigh) treeEdge(a, b VertexID) bool {
	if a > b {
		a, b = b, a
	}
	return p.isTree[[2]VertexID{a, b}]
}

func (p *bccLowHigh) Compute(ctx *pregel.Context[bccValue, bccMsg], msgs []bccMsg) {
	v := ctx.Value()
	id := ctx.ID()
	switch ctx.Superstep() {
	case 0:
		ctx.SendToNeighbors(bccMsg{Kind: bccPre, From: id, Pre: p.pre[id]})
		return // stay active: leaves must fire at superstep 1 even without mail
	case 1:
		// Base: own preorder and the preorders across non-tree edges.
		v.low, v.high = p.pre[id], p.pre[id]
		for _, m := range msgs {
			if m.Kind != bccPre || p.treeEdge(id, m.From) {
				continue
			}
			if m.Pre < v.low {
				v.low = m.Pre
			}
			if m.Pre > v.high {
				v.high = m.Pre
			}
		}
		v.pending = int(p.children[id])
		if v.pending == 0 {
			p.report(ctx, v)
		}
		ctx.VoteToHalt()
	default:
		for _, m := range msgs {
			if m.Kind != bccReport {
				continue
			}
			if m.Low < v.low {
				v.low = m.Low
			}
			if m.High > v.high {
				v.high = m.High
			}
			v.pending--
		}
		if v.pending == 0 && !v.reported {
			p.report(ctx, v)
		}
		ctx.VoteToHalt()
	}
}

func (p *bccLowHigh) report(ctx *pregel.Context[bccValue, bccMsg], v *bccValue) {
	v.reported = true
	if par := p.parent[ctx.ID()]; par != graph.NoVertex {
		ctx.SendTo(par, bccMsg{Kind: bccReport, Low: v.low, High: v.high})
	}
}

func (p *bccLowHigh) StateUnits(v *bccValue) int64 { return 4 }

// BCC computes the biconnected components of a connected undirected
// graph. Self-loops are not supported (the generators never produce
// them).
func BCC(g *graph.Graph, cfg Config) (*BCCResult, error) {
	if g.Directed {
		return nil, fmt.Errorf("vc: BCC requires an undirected graph")
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("vc: BCC requires a connected graph")
	}
	n := g.N()
	if n <= 1 || g.M() == 0 {
		return &BCCResult{EdgeComp: map[[2]VertexID]int{}, Stats: &bsp.Stats{N: n}}, nil
	}

	// Stage 1: spanning tree.
	sv, err := SVCC(g, cfg)
	if err != nil {
		return nil, err
	}
	tree := graph.New(n, false)
	isTree := make(map[[2]VertexID]bool, len(sv.TreeEdges))
	for _, e := range sv.TreeEdges {
		tree.AddEdge(e.U, e.V)
		isTree[[2]VertexID{e.U, e.V}] = true
	}
	tree.SortAdjacency()

	// Stage 2: root at 0; preorder, subtree sizes, parents.
	en, err := eulerPipeline(tree, 0, cfg)
	if err != nil {
		return nil, err
	}

	// Stage 3: low/high by upward waves on the original graph.
	children := make([]int32, n)
	for v := 0; v < n; v++ {
		if par := en.parent[v]; par != graph.NoVertex {
			children[par]++
		}
	}
	lh := &bccLowHigh{pre: en.pre, parent: en.parent, children: children, isTree: isTree}
	eng := pregel.NewEngine[bccValue, bccMsg](g, lh, engineCfg[bccMsg](cfg))
	lhRes, err := eng.Run()
	if err != nil {
		return nil, err
	}
	low := make([]int32, n)
	high := make([]int32, n)
	for v, val := range lhRes.Values {
		low[v], high[v] = val.low, val.high
	}

	// Stage 4: Tarjan–Vishkin auxiliary graph on the n-1 tree edges,
	// identified by the child's preorder number minus one.
	byPre := make([]VertexID, n) // preorder number -> vertex
	for v := 0; v < n; v++ {
		byPre[en.pre[v]] = VertexID(v)
	}
	aux := graph.New(n-1, false)
	seen := make(map[[2]VertexID]bool)
	addAux := func(a, b int32) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		k := [2]VertexID{VertexID(a), VertexID(b)}
		if !seen[k] {
			seen[k] = true
			aux.AddEdge(VertexID(a), VertexID(b))
		}
	}
	for _, e := range g.UndirectedEdges() {
		if isTree[[2]VertexID{e.U, e.V}] {
			continue
		}
		// Rule (a): non-tree edge between unrelated vertices links the
		// tree edges above both endpoints.
		a, b := en.pre[e.U], en.pre[e.V]
		u := e.U
		if a > b {
			a, b = b, a
			u = e.V
		}
		if b >= a+en.nd[u] { // unrelated in preorder intervals
			addAux(a-1, b-1)
		}
	}
	for v := 0; v < n; v++ {
		w := en.parent[v]
		if w == graph.NoVertex || en.parent[w] == graph.NoVertex {
			continue // v is the root, or its parent is
		}
		// Rule (b): the tree edge (w,v) joins the tree edge above w iff
		// some non-tree edge escapes w's subtree from v's subtree.
		if low[v] < en.pre[w] || high[v] >= en.pre[w]+en.nd[w] {
			addAux(en.pre[w]-1, en.pre[v]-1)
		}
	}

	cc, err := PrepareHashMinCC(aux, cfg)()
	if err != nil {
		return nil, err
	}

	// Label every input edge.
	out := &BCCResult{
		EdgeComp: make(map[[2]VertexID]int, g.M()),
		Stats:    MergeStats(sv.Stats, en.stats, lhRes.Stats, cc.Stats),
	}
	labelOf := make(map[VertexID]int)
	compOf := func(child VertexID) int {
		c := cc.Color[en.pre[child]-1]
		l, ok := labelOf[c]
		if !ok {
			l = out.NumComponents
			out.NumComponents++
			labelOf[c] = l
		}
		return l
	}
	for _, e := range g.UndirectedEdges() {
		key := [2]VertexID{e.U, e.V}
		if isTree[key] {
			child := e.U
			if en.parent[e.V] == e.U {
				child = e.V
			}
			out.EdgeComp[key] = compOf(child)
		} else {
			// Non-tree edge: same component as the tree edge above the
			// deeper (larger-preorder) endpoint.
			deeper := e.U
			if en.pre[e.V] > en.pre[e.U] {
				deeper = e.V
			}
			out.EdgeComp[key] = compOf(deeper)
		}
	}
	return out, nil
}
