package sweep

import (
	"sync"

	"flagsim/internal/flagspec"
	"flagsim/internal/workplan"
)

// A batch rasterizes each (flag, size) once. Its specs that compute
// share one resolved *Flag and one workplan.Geometry, which every plan
// and every final-grid check of theirs reads. The scope is the batch,
// not the process: a geometry kept for the process's life would hold
// several KB for every flag ever seen, and the generated space has
// millions. An entry is dropped when the batch's last spec using it
// finishes, so a large sweep does not hold every geometry at once.
//
// The table is built at the batch's first compute, counting only the
// specs not yet finished: a batch served wholly from the memo or the
// tier never builds it, and pays one flag per spec for its bookkeeping.

// geoKey identifies a batch's shared geometry: the flag name and size
// as the specs state them.
type geoKey struct {
	flag string
	w, h int
}

func geoKeyOf(s *Spec) geoKey { return geoKey{flag: s.Flag, w: s.W, h: s.H} }

// geoEntry is one (flag, size) of a batch: the flag and geometry, built
// once by the first spec that computes, and the number of the batch's
// specs still to finish.
type geoEntry struct {
	uses int
	once sync.Once
	flag *flagspec.Flag
	geo  *workplan.Geometry
	err  error
}

// geoShare is one batch's geometry table.
type geoShare struct {
	s     *Sweeper
	specs []Spec

	mu sync.Mutex
	// done marks the specs that have finished.
	done []bool
	// table is nil until the batch's first compute.
	table map[geoKey]*geoEntry
}

func (s *Sweeper) newGeoShare(specs []Spec) *geoShare {
	return &geoShare{s: s, specs: specs, done: make([]bool, len(specs))}
}

// resolve returns spec i's flag and geometry, resolving and building
// them on its entry's first call; every later call gets the same values.
func (g *geoShare) resolve(i int) (*flagspec.Flag, *workplan.Geometry, error) {
	k := geoKeyOf(&g.specs[i])
	g.mu.Lock()
	if g.table == nil {
		g.table = make(map[geoKey]*geoEntry)
		for j := range g.specs {
			if g.done[j] {
				continue
			}
			kj := geoKeyOf(&g.specs[j])
			e := g.table[kj]
			if e == nil {
				e = &geoEntry{}
				g.table[kj] = e
			}
			e.uses++
		}
	}
	e := g.table[k]
	g.mu.Unlock()
	e.once.Do(func() {
		if e.flag, e.err = flagspec.Lookup(k.flag); e.err != nil {
			return
		}
		w, h := k.w, k.h
		if w <= 0 {
			w = e.flag.DefaultW
		}
		if h <= 0 {
			h = e.flag.DefaultH
		}
		e.geo = workplan.NewGeometry(e.flag, w, h)
		g.s.geoBuilt.Add(1)
		g.s.geoLive.Add(1)
	})
	return e.flag, e.geo, e.err
}

// release records that spec i has finished, and drops its entry after
// the entry's last spec.
func (g *geoShare) release(i int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.done[i] = true
	if g.table == nil {
		return
	}
	k := geoKeyOf(&g.specs[i])
	e := g.table[k]
	if e.uses--; e.uses > 0 {
		return
	}
	delete(g.table, k)
	if e.geo != nil {
		g.s.geoLive.Add(-1)
	}
}
