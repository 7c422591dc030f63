package algohd

import (
	"context"
	"fmt"
	"sync"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/geom"
	"github.com/rankregret/rankregret/internal/xrand"
)

// AcquireOutcome reports what a SharedVecSet.Acquire call had to do, so
// callers (the engine's VecSet cache tier) can account for builds versus
// reuse.
type AcquireOutcome int

const (
	// VecSetReused means the requested view was served entirely from the
	// existing grid and sample stream.
	VecSetReused AcquireOutcome = iota
	// VecSetBuilt means this call built the grid and the initial samples.
	VecSetBuilt
	// VecSetExtended means the sample stream was extended to reach the
	// requested m; the grid and the existing prefix were reused.
	VecSetExtended
	// VecSetRepaired means this call materialized the set by incrementally
	// repairing another set's grid, samples, and top-K lists across a
	// dataset mutation (see NewRepairedVecSet) instead of building cold.
	VecSetRepaired
)

// String returns the outcome's metric label.
func (o AcquireOutcome) String() string {
	switch o {
	case VecSetBuilt:
		return "built"
	case VecSetExtended:
		return "extended"
	case VecSetRepaired:
		return "repaired"
	default:
		return "reused"
	}
}

// SharedVecSet is the reuse hook behind the engine's two-tier cache: one
// discretization of the function space — polar grid, sample stream, and the
// lazily built per-vector top-K lists, which dominate HDRRM's runtime —
// shared by every solve on the same (dataset, space, gamma, seed) no matter
// its sample count m. Acquire returns a VecSet view over the grid plus the
// first m samples that is identical to a freshly built set: samples are
// drawn one direction at a time from a single seeded stream, so a prefix of
// a longer Da equals a shorter Da built from the same seed, and a vector's
// top-K list does not depend on which other vectors are present.
//
// A SharedVecSet is safe for concurrent use. Acquire serializes build and
// extension work on an internal lock, which doubles as build coalescing:
// concurrent first acquirers block until the single build finishes and then
// reuse it. Waiting on that lock is not interruptible by ctx; the build
// itself is.
type SharedVecSet struct {
	ds      *dataset.Dataset
	space   funcspace.Space
	gamma   int
	seed    int64
	sampler Sampler

	mu        sync.Mutex
	stream    *sampleStream // shared with every set repaired from this one
	vecs      []geom.Vector // grid + samples taken so far; grows, never edited
	gridCount int
	samples   int // sampled directions taken from the stream so far
	built     bool
	tc        *topsCache

	// repair, when non-nil, defers materialization to an incremental repair
	// of another set's state (see NewRepairedVecSet); it is consumed by the
	// first Acquire.
	repair *repairSource
}

// repairSource names the set a pending repair draws from and the recorded
// dataset mutations separating the two datasets.
type repairSource struct {
	old    *SharedVecSet
	deltas []dataset.Delta
}

// sampleStream is the seeded direction stream Da behind a SharedVecSet and
// every set repaired from it: they discretize one space with one seed and
// sampler, and the stream does not depend on the data, so one stream serves
// them all. Committed draws never change, so each set reads its own prefix,
// and a repaired set extends from wherever the stream already is instead of
// replaying it from the seed.
type sampleStream struct {
	space   funcspace.Space
	seed    int64
	sampler Sampler

	mu    sync.Mutex
	rng   *xrand.Rand
	dirty bool          // rng advanced past uncommitted draws; resync before use
	draws []geom.Vector // committed draws in stream order; grows, never edited
}

// take returns the first m draws, drawing more when the stream is shorter.
// A failed draw (cancellation, a sampler that finds nothing) keeps the
// committed draws, and the rng is resynced by replay before the next one.
func (st *sampleStream) take(ctx context.Context, m int) ([]geom.Vector, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if m > len(st.draws) {
		if st.dirty {
			if err := st.resync(ctx); err != nil {
				return nil, err
			}
		}
		draws, err := drawSamples(ctx, st.space, m-len(st.draws), st.rng, st.sampler, st.draws)
		if err != nil {
			st.dirty = true
			return nil, err
		}
		st.draws = draws
	}
	return st.draws[:m:m], nil
}

// resync repositions a fresh seeded rng at the end of the committed draws
// by replaying (and discarding) the draws that produced them: the stream is
// deterministic from the seed, so this is exact and costs only the
// sampling, not the top-K lists. Called with st.mu held.
func (st *sampleStream) resync(ctx context.Context) error {
	rng := xrand.New(st.seed)
	if _, err := drawSamples(ctx, st.space, len(st.draws), rng, st.sampler, nil); err != nil {
		return err
	}
	st.rng, st.dirty = rng, false
	return nil
}

// Dataset returns the dataset this set discretizes; the pointer is fixed at
// construction.
func (s *SharedVecSet) Dataset() *dataset.Dataset { return s.ds }

// NewSharedVecSet prepares a shared vector set for the given build
// parameters without doing any work; the grid and samples are built by the
// first Acquire. A nil space means the full orthant; a nil sampler means
// uniform sampling on the space.
func NewSharedVecSet(ds *dataset.Dataset, space funcspace.Space, gamma int, seed int64, sampler Sampler) *SharedVecSet {
	return &SharedVecSet{ds: ds, space: space, gamma: gamma, seed: seed, sampler: sampler}
}

// Acquire returns a VecSet view over the grid plus the first m sampled
// directions, building the grid on first use and extending the sample
// stream when m exceeds what has been drawn so far. Views share one top-K
// cache, so repeated solves pay the expensive scoring passes once.
func (s *SharedVecSet) Acquire(ctx context.Context, m int) (*VecSet, AcquireOutcome, error) {
	if m < 0 {
		m = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	outcome := VecSetReused
	if !s.built {
		var err error
		if outcome, err = s.materializeLocked(ctx); err != nil {
			return nil, VecSetReused, err
		}
	}
	if m > s.samples {
		draws, err := s.stream.take(ctx, m)
		if err != nil {
			// The grid, samples, and top-K lists are all still valid.
			return nil, outcome, err
		}
		s.vecs = append(s.vecs, draws[s.samples:]...)
		s.samples = m
		s.tc.setVecs(s.vecs)
		if outcome == VecSetReused {
			outcome = VecSetExtended
		}
	}
	if s.gridCount+m == 0 {
		return nil, outcome, fmt.Errorf("algohd: empty vector set (space %s admits no directions)", s.space.Name())
	}
	return &VecSet{ds: s.ds, Vecs: s.vecs[:s.gridCount+m], GridCount: s.gridCount, tc: s.tc}, outcome, nil
}

// materializeLocked brings an un-built set to its built state: by repairing
// the pending repair source when one is set (and the repair succeeds), else
// by building the grid cold. Called with s.mu held. Errors are cancellation
// or invalid build parameters; a cancelled repair stays pending so a later
// Acquire retries it.
func (s *SharedVecSet) materializeLocked(ctx context.Context) (AcquireOutcome, error) {
	if src := s.repair; src != nil {
		s.repair = nil
		ok, err := s.repairFrom(ctx, src)
		if err != nil {
			s.repair = src
			return VecSetReused, err
		}
		if ok {
			return VecSetRepaired, nil
		}
		// Declined (rewrite, churn, truncated history): fall through to a
		// cold build, which is always correct.
	}
	grid, space, err := buildGrid(s.ds, s.space, s.gamma)
	if err != nil {
		return VecSetReused, err
	}
	s.space = space
	s.stream = &sampleStream{space: space, seed: s.seed, sampler: s.sampler, rng: xrand.New(s.seed)}
	s.vecs = grid
	s.gridCount = len(grid)
	s.samples = 0
	s.tc = &topsCache{ds: s.ds, vecs: s.vecs}
	s.built = true
	return VecSetBuilt, nil
}

// materialize is materializeLocked behind the lock, used to force a repair
// chain's source into existence before repairing from it.
func (s *SharedVecSet) materialize(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.built {
		return nil
	}
	_, err := s.materializeLocked(ctx)
	return err
}

// Samples returns how many sampled directions this set has taken so far.
func (s *SharedVecSet) Samples() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samples
}
