package vc

import (
	"maps"

	rt "vcgraph/internal/runtime"
)

// Checkpoint support for the vertex-centric programs. Two footguns
// live here, both invisible until a rollback actually happens:
//
//   - Programs whose vertex value V carries slices or maps must
//     implement CloneValue (runtime.ValueCloner), or a checkpoint's
//     values alias the live computation: the run mutates the snapshot
//     after it was "saved", and recovery restores corrupted state.
//
//   - Programs with master state (fields mutated in BeforeSuperstep)
//     or vertex state outside the value array (the packed stores of a
//     Config.PackedState run, see vertexstate.go) must implement
//     runtime.StateSnapshotter, or a rollback rewinds vertex state
//     while the master keeps marching forward — e.g. the S-V phase
//     machine would resume mid-cycle against round-0 values.
//
// Both hooks are found by type assertion, so a misspelled method
// would silently drop rollback state; the assertions below make that
// a build failure instead.
//
// RestoreState(nil) means "fresh restart": every program here is
// constructed with zero-valued master state (all phase enums start at
// iota 0), so resetting the mutable fields to their zero values is
// exactly the initial state. Config-like fields (source lists, k, nl,
// trace) are never touched. Packed stores need no reset: superstep 0
// rewrites them.

var (
	_ rt.ValueCloner[diamValue]    = (*diamProgram)(nil)
	_ rt.ValueCloner[bcBatchValue] = (*bcBatchProgram)(nil)
	_ rt.ValueCloner[bpmValue]     = (*bpmProgram)(nil)
	_ rt.ValueCloner[triValue]     = (*triProgram)(nil)
	_ rt.ValueCloner[simValue]     = (*simProgram)(nil)
	_ rt.ValueCloner[eulerValue]   = eulerProgram{}
	_ rt.ValueCloner[kcoreValue]   = kcoreProgram[kcoreValue, kcoreMap]{}
	_ rt.ValueCloner[mcstValue]    = (*mcstProgram)(nil)
	_ rt.ValueCloner[scValue]      = (*scProgram)(nil)
	_ rt.ValueCloner[ssValue]      = (*ssProgram)(nil)

	_ rt.StateSnapshotter = (*svProgram)(nil)
	_ rt.StateSnapshotter = (*mcstProgram)(nil)
	_ rt.StateSnapshotter = (*bcProgram)(nil)
	_ rt.StateSnapshotter = (*bcBatchProgram)(nil)
	_ rt.StateSnapshotter = (*mwmProgram)(nil)
	_ rt.StateSnapshotter = (*bpmProgram)(nil)
	_ rt.StateSnapshotter = (*misProgram)(nil)
	_ rt.StateSnapshotter = (*sccProgram)(nil)
	_ rt.StateSnapshotter = (*colProgram[colValue, inValue[colValue]])(nil)
	_ rt.StateSnapshotter = (*hitsProgram)(nil)
	_ rt.StateSnapshotter = hashMinProgram[struct{}, packedLabels]{}
	_ rt.StateSnapshotter = kcoreProgram[kcoreSlotsValue, kcoreSlots]{}
)

// --- vertex-value deep copies ---

func (p *diamProgram) CloneValue(v diamValue) diamValue {
	v.dist = append([]int32(nil), v.dist...)
	return v
}

func (p *bcBatchProgram) CloneValue(v bcBatchValue) bcBatchValue {
	return bcBatchValue{
		dist:    append([]int32(nil), v.dist...),
		sigma:   append([]float64(nil), v.sigma...),
		delta:   append([]float64(nil), v.delta...),
		pending: append([]int32(nil), v.pending...),
		done:    append([]bool(nil), v.done...),
	}
}

func (p *bpmProgram) CloneValue(v bpmValue) bpmValue {
	v.candidates = append([]VertexID(nil), v.candidates...)
	return v
}

func (p *triProgram) CloneValue(v triValue) triValue {
	v.higher = append([]VertexID(nil), v.higher...)
	return v
}

func (p *simProgram) CloneValue(v simValue) simValue {
	v.childSets = maps.Clone(v.childSets)
	v.parentSets = maps.Clone(v.parentSets)
	return v
}

func (eulerProgram) CloneValue(v eulerValue) eulerValue {
	v.succ = maps.Clone(v.succ)
	return v
}

func (p *mcstProgram) CloneValue(v mcstValue) mcstValue {
	v.edges = append([]mcstEdge(nil), v.edges...)
	return v
}

func (p *scProgram) CloneValue(v scValue) scValue {
	cs := make([]SemiCluster, len(v.clusters))
	for i, c := range v.clusters {
		c.Members = append([]VertexID(nil), c.Members...)
		cs[i] = c
	}
	return scValue{clusters: cs}
}

func (p *ssProgram) CloneValue(v ssValue) ssValue {
	v.records = maps.Clone(v.records)
	v.fresh = append([]ssRecord(nil), v.fresh...)
	return v
}

// --- master-state snapshots ---

type svMasterSnap struct {
	roundChanged bool
	edges        [][2]VertexID
	snapshots    [][]VertexID
}

func (p *svProgram) SnapshotState() any {
	return svMasterSnap{
		roundChanged: p.roundChanged,
		edges:        append([][2]VertexID(nil), p.edges...),
		snapshots:    append([][]VertexID(nil), p.snapshots...),
	}
}

func (p *svProgram) RestoreState(s any) {
	if s == nil {
		p.roundChanged, p.edges, p.snapshots = false, nil, nil
		return
	}
	m := s.(svMasterSnap)
	p.roundChanged = m.roundChanged
	// Copy on restore too: the same snapshot generation can be
	// restored more than once, and the run appends to these slices.
	p.edges = append([][2]VertexID(nil), m.edges...)
	p.snapshots = append([][]VertexID(nil), m.snapshots...)
}

type mcstMasterSnap struct {
	phase  int
	picked []pickedEdge
}

func (p *mcstProgram) SnapshotState() any {
	return mcstMasterSnap{phase: p.phase, picked: append([]pickedEdge(nil), p.picked...)}
}

func (p *mcstProgram) RestoreState(s any) {
	if s == nil {
		p.phase, p.picked = 0, nil
		return
	}
	m := s.(mcstMasterSnap)
	p.phase = m.phase
	p.picked = append([]pickedEdge(nil), m.picked...)
}

func (p *bcProgram) SnapshotState() any { return p.mode }
func (p *bcProgram) RestoreState(s any) {
	if s == nil {
		p.mode = 0
		return
	}
	p.mode = s.(int)
}

func (p *bcBatchProgram) SnapshotState() any { return p.mode }
func (p *bcBatchProgram) RestoreState(s any) {
	if s == nil {
		p.mode = 0
		return
	}
	p.mode = s.(int)
}

func (p *mwmProgram) SnapshotState() any { return p.phase }
func (p *mwmProgram) RestoreState(s any) {
	if s == nil {
		p.phase = 0
		return
	}
	p.phase = s.(int)
}

func (p *bpmProgram) SnapshotState() any { return p.phase }
func (p *bpmProgram) RestoreState(s any) {
	if s == nil {
		p.phase = 0
		return
	}
	p.phase = s.(int)
}

func (p *misProgram) SnapshotState() any { return p.phase }
func (p *misProgram) RestoreState(s any) {
	if s == nil {
		p.phase = 0
		return
	}
	p.phase = s.(int)
}

func (p *sccProgram) SnapshotState() any { return p.phase }
func (p *sccProgram) RestoreState(s any) {
	if s == nil {
		p.phase = 0
		return
	}
	p.phase = s.(int)
}

func (p *hitsProgram) SnapshotState() any { return p.norm }
func (p *hitsProgram) RestoreState(s any) {
	if s == nil {
		p.norm = 0
		return
	}
	p.norm = s.(float64)
}
