package pregel

import (
	"slices"

	"vcgraph/internal/graph"
)

// Finishing Computations Serially (FCS), the Salihoglu–Widom
// optimization the paper's §1 cites: many vertex-centric algorithms
// spend a long tail of supersteps on a tiny active frontier (Hash-Min
// on a path spends Θ(n) supersteps moving one label). When the number
// of active vertices drops to Config.FCSThreshold or below, the engine
// hands the whole remaining computation to the program's serial
// finisher, which completes it in one step with direct access to every
// value. The serial work is charged to a single worker in one final
// superstep — honest accounting: FCS trades superstep latency for a
// deliberately imbalanced final step.

// SerialFinisher is the optional program extension FCS requires.
type SerialFinisher[V, M any] interface {
	// FinishSerially completes the computation. active lists the
	// vertices that would run next superstep, inbox their undelivered
	// messages. It returns the sequential work performed (for the cost
	// model).
	FinishSerially(fc *FinishContext[V, M]) int64
}

// FinishContext gives the serial finisher full access to the
// computation state.
type FinishContext[V, M any] struct {
	engine *Engine[V, M]
	active []VertexID
}

// NumVertices returns the graph size.
func (fc *FinishContext[V, M]) NumVertices() int { return fc.engine.g.N() }

// Active lists the vertices that were still active at handoff.
func (fc *FinishContext[V, M]) Active() []VertexID { return fc.active }

// Inbox returns the undelivered messages of v.
func (fc *FinishContext[V, M]) Inbox(v VertexID) []M { return fc.engine.mbox.Inbox(v) }

// Value returns a pointer to v's value.
func (fc *FinishContext[V, M]) Value(v VertexID) *V { return &fc.engine.col.Values[v] }

// OutEdges returns v's current (possibly mutated) adjacency,
// materializing it from the CSR snapshot on first request. Finishers
// that only need destinations should prefer ForEachOut.
func (fc *FinishContext[V, M]) OutEdges(v VertexID) []graph.Edge { return fc.engine.outEdges(v) }

// OutDegree returns v's current out-degree without materializing the
// adjacency.
func (fc *FinishContext[V, M]) OutDegree(v VertexID) int {
	if fc.engine.mutated[v] {
		return len(fc.engine.adj[v])
	}
	return fc.engine.csr.OutDegree(v)
}

// ForEachOut calls f for every current out-edge of v in adjacency
// order, without allocating for unmutated vertices.
func (fc *FinishContext[V, M]) ForEachOut(v VertexID, f func(dst VertexID, w float64)) {
	e := fc.engine
	if e.mutated[v] {
		for _, ed := range e.adj[v] {
			f(ed.Dst, ed.W)
		}
		return
	}
	e.csr.ForEachOut(v, f)
}

// FinishSerially implements runtime.SerialFinishPolicy: it checks the
// FCS trigger after a superstep and, when the frontier is narrow
// enough, hands the remaining computation to the program's serial
// finisher. The driver records the returned work as one final,
// single-worker superstep.
func (e *Engine[V, M]) FinishSerially(pending int) (work, active int64, done bool) {
	threshold := e.cfg.FCSThreshold
	finisher, ok := e.prog.(SerialFinisher[V, M])
	if threshold <= 0 || !ok {
		return 0, 0, false
	}
	// The worklist holds exactly the vertices that would run next
	// superstep (active or holding mail), so the trigger check is a
	// counter read instead of an O(n) halt-flag scan.
	count := e.wl.Pending()
	if count == 0 || count > threshold {
		return 0, 0, false // regular termination / frontier still too wide
	}
	frontier := make([]VertexID, 0, count)
	for w := 0; w < e.cfg.Workers; w++ {
		frontier = append(frontier, e.wl.Next(w)...)
	}
	slices.Sort(frontier)
	fc := &FinishContext[V, M]{engine: e, active: frontier}
	work = finisher.FinishSerially(fc)
	for v := 0; v < e.g.N(); v++ {
		e.mbox.ResetVertex(VertexID(v))
		e.halted[v] = true
	}
	e.wl.Clear()
	return work, int64(len(frontier)), true
}
