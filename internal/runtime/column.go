package runtime

// ValueCloner lets a program deep-copy vertex values for checkpoints.
// Programs whose value type carries reference types (slices, maps)
// must implement it, or a rollback would restore values aliasing live
// state. Column looks it up once, when a run starts.
type ValueCloner[V any] interface {
	CloneValue(v V) V
}

// StateSnapshotter is the fault-tolerance hook for programs that keep
// state outside the engine's value array: master state mutated between
// supersteps, or the bit-packed stores in internal/vc. Every engine's
// Column captures it alongside the values in each checkpoint frame and
// hands it back on rollback. RestoreState(nil) must reset to the
// pristine initial state (a restart from step 0 with no checkpoint
// taken).
type StateSnapshotter interface {
	// SnapshotState returns an opaque deep copy of the program's
	// private state.
	SnapshotState() any
	// RestoreState replaces the program's private state with a copy
	// captured by SnapshotState, or resets to pristine when passed nil.
	RestoreState(state any)
}

// Column is a run's vertex-value array under checkpointing, the part
// of rollback recovery every engine shares. It owns the dirty set (the
// vertices written since the last frame), the Init-time pristine copy
// for a checkpoint-free restart, the program's ValueCloner, and the
// program's StateSnapshotter state. An engine marks the vertices it
// writes, saves a Full or Delta frame next to its own barrier state,
// and rebuilds a generation with Load, Patch, or Reset.
//
// Mark may be called concurrently for distinct vertices; everything
// else runs single-threaded at a barrier.
type Column[V any] struct {
	// Values is the live value array. Engines read and write it
	// directly; a double-buffered engine may swap in another slice of
	// the same length. Load, Patch, and Reset rewrite it in place.
	Values []V

	dirty    []bool
	pristine []V // Init-time copy for checkpoint-free restarts (faults only)
	cloner   ValueCloner[V]
	state    StateSnapshotter
}

// NewColumn wraps values, already seeded by the program's Init, for a
// run of prog. keepPristine — set when the run has a fault plan — keeps
// a copy of the seed values so a restart never re-reads the graph.
func NewColumn[V any](prog any, values []V, keepPristine bool) Column[V] {
	c := Column[V]{Values: values, dirty: make([]bool, len(values))}
	c.cloner, _ = prog.(ValueCloner[V])
	c.state, _ = prog.(StateSnapshotter)
	if keepPristine {
		c.pristine = make([]V, len(values))
		c.cloneInto(c.pristine, values)
	}
	return c
}

// ColumnFrame is the column's share of one checkpoint frame: the
// values (all of them, or the dirty ones on a delta frame) and the
// program's private state, always complete.
type ColumnFrame[V any] struct {
	// IDs lists a delta frame's dirty vertices in ascending order; the
	// frame's values are indexed by position in IDs. Engines gather
	// their own per-vertex state at the same IDs. nil on a full frame.
	IDs    []VertexID
	values []V
	state  any
}

// Mark records that v's value (or any engine state keyed by v) changed
// since the last frame.
func (c *Column[V]) Mark(v VertexID) { c.dirty[v] = true }

// Full deep-copies every value into a frame and clears the dirty set.
func (c *Column[V]) Full() ColumnFrame[V] {
	clear(c.dirty)
	vals := make([]V, len(c.Values))
	c.cloneInto(vals, c.Values)
	return ColumnFrame[V]{values: vals, state: c.snapshotState()}
}

// Delta deep-copies the values marked since the previous frame and
// clears the dirty set, so the next frame patches this one.
func (c *Column[V]) Delta() ColumnFrame[V] {
	var ids []VertexID
	for v, d := range c.dirty {
		if d {
			ids = append(ids, VertexID(v))
			c.dirty[v] = false
		}
	}
	vals := make([]V, len(ids))
	for i, id := range ids {
		vals[i] = c.clone(c.Values[id])
	}
	return ColumnFrame[V]{IDs: ids, values: vals, state: c.snapshotState()}
}

// Load rewrites every value from a full frame and clears the dirty
// set.
func (c *Column[V]) Load(f ColumnFrame[V]) {
	c.cloneInto(c.Values, f.values)
	c.restoreState(f.state)
	clear(c.dirty)
}

// Patch applies a delta frame on top of the values already rebuilt
// from its chain.
func (c *Column[V]) Patch(f ColumnFrame[V]) {
	for i, id := range f.IDs {
		c.Values[id] = c.clone(f.values[i])
	}
	c.restoreState(f.state)
}

// Reset returns every value to its pristine seed, the program state to
// its initial state, and clears the dirty set: a restart with no
// readable checkpoint. Only a column built with keepPristine can reset.
func (c *Column[V]) Reset() {
	c.cloneInto(c.Values, c.pristine)
	c.restoreState(nil)
	clear(c.dirty)
}

// Bytes is the frame's deterministic resident-byte estimate (see
// SnapshotSizer): the values, a delta frame's IDs, and the program
// state when its snapshot reports SizeBytes() int, as a PackedInts
// clone does. Program state is copied whole into every frame, delta
// frames included, so it counts on both frame kinds; state without
// SizeBytes is opaque and counts nothing.
func (f ColumnFrame[V]) Bytes() int64 {
	b := int64(len(f.values))*SizeOf[V]() + int64(len(f.IDs))*SizeOf[VertexID]()
	if s, ok := f.state.(interface{ SizeBytes() int }); ok {
		b += int64(s.SizeBytes())
	}
	return b
}

func (c *Column[V]) clone(v V) V {
	if c.cloner != nil {
		return c.cloner.CloneValue(v)
	}
	return v
}

// cloneInto deep-copies src into dst.
func (c *Column[V]) cloneInto(dst, src []V) {
	if c.cloner == nil {
		copy(dst, src)
		return
	}
	for i, v := range src {
		dst[i] = c.cloner.CloneValue(v)
	}
}

func (c *Column[V]) snapshotState() any {
	if c.state == nil {
		return nil
	}
	return c.state.SnapshotState()
}

func (c *Column[V]) restoreState(s any) {
	if c.state != nil {
		c.state.RestoreState(s)
	}
}
