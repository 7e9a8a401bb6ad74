package runtime

// Checkpoints is the shared checkpoint store under the engines'
// rollback recovery. Frames come in two kinds: a *full* frame is a
// complete deep copy of the barrier state, and a *delta* frame is a
// dirty-set patch against the frame saved immediately before it (see
// DeltaPolicy). A delta frame is readable only through its whole
// ancestor chain — every frame from the nearest full frame below it up
// to the frame itself — so corrupting one frame silently poisons every
// frame that depends on it.
//
// Retention mirrors the legacy two-generation store (Pregel's
// write-then-retire checkpoint files): whenever a full frame lands, the
// store prunes everything older than the second-newest full frame, so
// at most two reconstructible full generations (plus their dependent
// deltas) stay resident. With every save full — the default when
// FullSnapshotEvery is unset — this degenerates to exactly the old
// current + previous pair.
//
// A snapshot written while a FaultCorruptCheckpoint event is armed is
// stored with its corrupt flag set — the damage stays silent until
// Recover walks a chain through the frame, fails its validation,
// discards it together with every dependent frame, and falls back to an
// older reconstructible generation.
//
// The store is generic over the engine's snapshot type S; engines are
// responsible for deep-copying their state into S (see Column).
type Checkpoints[S any] struct {
	frames []ckFrameRec[S] // oldest first
	saved  int
	deltas int
}

type ckFrameRec[S any] struct {
	state   S
	step    int
	full    bool
	ok      bool
	corrupt bool
}

// Save appends a frame taken at the given barrier. full marks a
// complete snapshot; a delta frame patches the frame saved immediately
// before it. corrupt marks the frame as silently damaged (it will fail
// validation when a recovery reads it back). The first frame ever
// saved must be full — the driver guarantees it.
func (c *Checkpoints[S]) Save(step int, state S, full, corrupt bool) {
	c.frames = append(c.frames, ckFrameRec[S]{state: state, step: step, full: full, ok: true, corrupt: corrupt})
	c.saved++
	if !full {
		c.deltas++
		return
	}
	// A new full generation retires everything older than the previous
	// full frame: two reconstructible generations stay resident.
	fulls := 0
	for i := len(c.frames) - 1; i >= 0; i-- {
		if !c.frames[i].full {
			continue
		}
		fulls++
		if fulls == 2 {
			if i > 0 {
				c.frames = append(c.frames[:0], c.frames[i:]...)
			}
			return
		}
	}
}

// Recover returns the newest reconstructible generation as a chain:
// chain[0] is a full frame and every later element is a delta to apply
// in order. It walks back from the newest frame; a candidate whose
// chain crosses a corrupt frame is discarded — the corrupt frame is
// counted once in skipped, and every still-readable frame depending on
// it is marked unreadable and counted in invalidated. ok is false when
// no reconstructible generation exists — the engine must restart from
// scratch.
func (c *Checkpoints[S]) Recover() (chain []S, step int, skipped, invalidated int, ok bool) {
	for i := len(c.frames) - 1; i >= 0; i-- {
		if !c.frames[i].ok {
			continue
		}
		// Locate the candidate's base full frame, then validate the
		// reconstruction chain base..i in read order.
		base := i
		for base >= 0 && !c.frames[base].full {
			base--
		}
		bad := -1
		if base < 0 {
			bad = 0 // headless deltas: no full base survives
		} else {
			for j := base; j <= i; j++ {
				g := &c.frames[j]
				if !g.ok {
					bad = j
					break
				}
				if g.corrupt {
					g.ok = false
					skipped++
					bad = j
					break
				}
			}
		}
		if bad < 0 {
			chain = make([]S, 0, i-base+1)
			for j := base; j <= i; j++ {
				chain = append(chain, c.frames[j].state)
			}
			return chain, c.frames[i].step, skipped, invalidated, true
		}
		// Everything above the bad frame through the candidate depends
		// on it (the range holds no other full frame) and is unreadable.
		for j := bad; j <= i; j++ {
			if g := &c.frames[j]; g.ok {
				g.ok = false
				invalidated++
			}
		}
		i = bad // resume the walk below the bad frame
	}
	return nil, 0, skipped, invalidated, false
}

// Saved reports how many frames have been written over the store's
// lifetime.
func (c *Checkpoints[S]) Saved() int { return c.saved }

// DeltaSaved reports how many of the saved frames were deltas.
func (c *Checkpoints[S]) DeltaSaved() int { return c.deltas }
