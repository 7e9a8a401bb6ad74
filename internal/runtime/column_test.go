package runtime

import (
	"reflect"
	"testing"
)

// sliceProg is a program with slice-valued vertices (so a frame that
// aliased live state would show it) and a private counter restored
// through StateSnapshotter.
type sliceProg struct{ state int }

func (*sliceProg) CloneValue(v []int) []int { return append([]int(nil), v...) }

func (p *sliceProg) SnapshotState() any { return p.state }

func (p *sliceProg) RestoreState(s any) {
	if s == nil {
		p.state = 0
		return
	}
	p.state = s.(int)
}

func sliceSeed(n int) [][]int {
	vals := make([][]int, n)
	for v := range vals {
		vals[v] = []int{v}
	}
	return vals
}

func deepCopy(vals [][]int) [][]int {
	out := make([][]int, len(vals))
	for i, v := range vals {
		out[i] = append([]int(nil), v...)
	}
	return out
}

func TestColumnFramesRoundTrip(t *testing.T) {
	prog := &sliceProg{}
	col := NewColumn(prog, sliceSeed(4), true)

	full := col.Full()
	if full.IDs != nil {
		t.Fatalf("full frame has IDs %v", full.IDs)
	}
	col.Values[2][0] = 20
	col.Mark(2)
	col.Values[0] = append(col.Values[0], 7)
	col.Mark(0)
	prog.state = 5
	delta := col.Delta()
	if !reflect.DeepEqual(delta.IDs, []VertexID{0, 2}) {
		t.Fatalf("delta IDs = %v, want [0 2]", delta.IDs)
	}
	szV, szID := SizeOf[[]int](), SizeOf[VertexID]()
	if got, want := full.Bytes(), 4*szV; got != want {
		t.Fatalf("full frame bytes = %d, want %d", got, want)
	}
	if got, want := delta.Bytes(), 2*(szV+szID); got != want {
		t.Fatalf("delta frame bytes = %d, want %d", got, want)
	}
	if again := col.Delta(); again.IDs != nil {
		t.Fatalf("delta did not clear the dirty set: %v", again.IDs)
	}

	// Scribble over live state in place: no frame may see it.
	for _, v := range col.Values {
		v[0] = -1
	}
	prog.state = 9
	col.Load(full)
	if want := sliceSeed(4); !reflect.DeepEqual(col.Values, want) || prog.state != 0 {
		t.Fatalf("load full: values %v state %d, want %v state 0", col.Values, prog.state, want)
	}
	col.Patch(delta)
	want := [][]int{{0, 7}, {1}, {20}, {3}}
	if !reflect.DeepEqual(col.Values, want) || prog.state != 5 {
		t.Fatalf("patch delta: values %v state %d, want %v state 5", col.Values, prog.state, want)
	}
	col.Values[0][1] = 99
	col.Patch(delta)
	if col.Values[0][1] != 7 {
		t.Fatal("patched values alias the delta frame")
	}

	col.Mark(3)
	col.Values[1][0] = 11
	col.Reset()
	if want := sliceSeed(4); !reflect.DeepEqual(col.Values, want) || prog.state != 0 {
		t.Fatalf("reset: values %v state %d, want %v state 0", col.Values, prog.state, want)
	}
	if d := col.Delta(); d.IDs != nil {
		t.Fatalf("reset kept dirty vertices %v", d.IDs)
	}
	col.Values[1][0] = 11
	col.Reset()
	if col.Values[1][0] != 1 {
		t.Fatal("reset values alias the pristine copy")
	}
}

// A program without hooks gets plain copies and no private state.
func TestColumnPlainValues(t *testing.T) {
	col := NewColumn(struct{}{}, []float64{1, 2, 3}, false)
	full := col.Full()
	col.Values[1] = 5
	col.Mark(1)
	delta := col.Delta()
	col.Values[1], col.Values[2] = 8, 9
	col.Load(full)
	col.Patch(delta)
	if want := []float64{1, 5, 3}; !reflect.DeepEqual(col.Values, want) {
		t.Fatalf("values %v, want %v", col.Values, want)
	}
	if delta.state != nil || full.state != nil {
		t.Fatal("hookless program captured state")
	}
}

// FuzzColumnChain drives a column through random writes, marks,
// program-state changes, and full/delta saves into a Checkpoints store
// with random corrupt flags, rolling back along the way and at the end.
// Every rollback must rebuild exactly the values and state recorded
// at the recovered step (or the Init values when nothing is readable),
// and no frame may alias live state: the values are slices that the
// run mutates in place.
func FuzzColumnChain(f *testing.F) {
	f.Add([]byte{3, 2, 0, 1, 0, 2, 2, 6, 1, 2, 3})
	f.Add([]byte{8, 2, 0, 0, 5, 2, 4, 0, 7, 2, 6, 4, 0, 3, 9, 2, 2, 3})
	f.Add([]byte{1, 0, 0, 3, 2, 4, 1, 0, 2, 8, 3})
	f.Add([]byte{12, 2, 0, 0, 1, 2, 5, 0, 2, 2, 1, 1, 7, 2, 9, 0, 3, 2, 0, 3, 4, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 1 + next()%12
		prog := &sliceProg{}
		col := NewColumn(prog, sliceSeed(n), true)
		var cks Checkpoints[ColumnFrame[[]int]]
		type record struct {
			values [][]int
			state  int
		}
		recorded := map[int]record{}
		saves, forceFull := 0, true

		rollback := func() {
			chain, step, _, _, ok := cks.Recover()
			want := record{values: sliceSeed(n)}
			if ok {
				col.Load(chain[0])
				for _, f := range chain[1:] {
					col.Patch(f)
				}
				want = recorded[step]
			} else {
				col.Reset()
			}
			if !reflect.DeepEqual(col.Values, want.values) || prog.state != want.state {
				t.Fatalf("rollback to step %d (ok=%v): values %v state %d, want %v state %d",
					step, ok, col.Values, prog.state, want.values, want.state)
			}
			forceFull = true
		}

		for len(data) > 0 {
			switch op, arg := next()%5, next(); op {
			case 0: // write a vertex in place, sometimes growing its slice
				v := arg % n
				col.Values[v][0] += 1 + arg
				if arg%3 == 0 {
					col.Values[v] = append(col.Values[v], arg)
				}
				col.Mark(VertexID(v))
			case 1: // a mark without a write
				col.Mark(VertexID(arg % n))
			case 2: // save a frame
				full := forceFull || arg%3 == 0
				var fr ColumnFrame[[]int]
				if full {
					fr = col.Full()
				} else {
					fr = col.Delta()
				}
				saves++
				recorded[saves] = record{values: deepCopy(col.Values), state: prog.state}
				cks.Save(saves, fr, full, arg%4 == 1)
				forceFull = false
			case 3:
				rollback()
			case 4: // program-private state moves on
				prog.state += 1 + arg
			}
		}
		rollback()
		for _, v := range col.Values {
			v[0] = -1
		}
		col.Reset()
		if want := sliceSeed(n); !reflect.DeepEqual(col.Values, want) || prog.state != 0 {
			t.Fatalf("reset: values %v state %d, want %v state 0", col.Values, prog.state, want)
		}
	})
}

// storeProg keeps its vertex state in a packed store outside the value
// array and checkpoints a clone of it, as the packed programs in
// internal/vc do.
type storeProg struct{ store *PackedInts }

func (p *storeProg) SnapshotState() any { return p.store.Clone() }

func (p *storeProg) RestoreState(s any) {
	if s != nil {
		p.store.CopyFrom(s.(*PackedInts))
	}
}

// TestColumnFrameBytesCountsSizedState: a program-state snapshot that
// reports SizeBytes is cloned whole into every frame, so both frame
// kinds count it; opaque state counts nothing.
func TestColumnFrameBytesCountsSizedState(t *testing.T) {
	const n = 100
	prog := &storeProg{store: NewPackedInts(n, n)}
	state := int64(prog.store.SizeBytes())
	c := NewColumn[struct{}](prog, make([]struct{}, n), false)
	if got := c.Full().Bytes(); got != state {
		t.Fatalf("full frame bytes = %d, want the store's %d", got, state)
	}
	c.Mark(3)
	c.Mark(7)
	if got, want := c.Delta().Bytes(), 2*SizeOf[VertexID]()+state; got != want {
		t.Fatalf("delta frame bytes = %d, want %d", got, want)
	}

	opaque := NewColumn[int64](&sliceProg{state: 5}, make([]int64, n), false)
	if got, want := opaque.Full().Bytes(), n*SizeOf[int64](); got != want {
		t.Fatalf("opaque-state full frame bytes = %d, want %d", got, want)
	}
}
