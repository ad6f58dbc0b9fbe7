package spider

import (
	"cmp"
	"fmt"
	"time"

	"spider/internal/ind"
	"spider/internal/sketch"
)

// This file exposes the paper's Sec 7 future-work extensions: partial
// INDs on dirty data, the Sec 4.1 sampling pretest, and inclusion between
// concatenated/embedded values ("144f" vs "PDB-144f").

// PartialIND is a partial inclusion dependency: at least Coverage of the
// distinct values of Dep occur in Ref.
type PartialIND struct {
	Dep, Ref ColumnRef
	// Coverage is the measured fraction (1.0 = exact IND).
	Coverage float64
	// Missing is the number of distinct dependent values without a
	// counterpart.
	Missing int
}

// String renders the partial IND with its coverage.
func (p PartialIND) String() string {
	return fmt.Sprintf("%s ⊆ %s (%.1f%%)", p.Dep, p.Ref, p.Coverage*100)
}

// PartialOptions tunes FindPartialINDs.
type PartialOptions struct {
	// Threshold is σ in (0, 1]: the minimum fraction of distinct
	// dependent values that must be covered.
	Threshold float64
	// WorkDir roots the fs backend; see Options.WorkDir.
	WorkDir string
	// Algorithm selects the verification engine: BruteForce (the
	// default, the paper-style per-candidate scans) or SpiderMerge (one
	// pass over all attributes via the count-carrying k-way heap merge).
	// Both return identical results.
	Algorithm Algorithm
	// SketchPrefilter enables the sketch pre-filter on the partial
	// path. Unlike the exact path there is no sound refutation rule
	// here — a few provably missing values refute only the exact IND —
	// so the filter prunes by estimated containment instead: a
	// candidate is dropped when its estimate falls below
	// SketchMinContainment (default: the σ threshold itself). This is
	// APPROXIMATE — a borderline partial IND can be lost — which is why
	// it is opt-in on this path.
	SketchPrefilter bool
	// SketchMinContainment overrides the pruning cut-off; 0 uses σ.
	// Values below σ make the filter more conservative (a σ=0.9
	// candidate whose estimate is 0.85 may still be verified), values
	// above σ more aggressive.
	SketchMinContainment float64
	// SketchK and SketchBloomBitsPerValue size the sketches (0 =
	// package defaults).
	SketchK                 int
	SketchBloomBitsPerValue int
	// Store selects the dataset backend; see Options.Store.
	Store *Store
	// MaxValuePretest is NOT applied: a dependent maximum above the
	// referenced maximum refutes only the exact IND, not a partial one.
	// SamplingPretest is likewise unsound for partial INDs and skipped.
	// The cardinality pretest runs in its σ-aware form (a dependent with
	// more distinct values than the referenced side can still reach
	// σ-coverage, so only ⌈σ·|s(a)|⌉ > |s(b)| prunes).
}

// FindPartialINDs discovers partial inclusion dependencies: the Sec 7
// extension for dirty data, where a foreign key may hold for most but not
// all values.
func FindPartialINDs(db *Database, opts PartialOptions) ([]PartialIND, Stats, error) {
	if opts.Threshold <= 0 || opts.Threshold > 1 {
		return nil, Stats{}, fmt.Errorf("spider: partial threshold must be in (0, 1], got %v", opts.Threshold)
	}
	if err := checkContainment(opts.SketchMinContainment); err != nil {
		return nil, Stats{}, err
	}
	switch opts.Algorithm {
	case BruteForce, SpiderMerge:
	default:
		return nil, Stats{}, fmt.Errorf("spider: partial IND discovery supports BruteForce or SpiderMerge, not %v", opts.Algorithm)
	}
	r, err := openRun(db, opts.Store, opts.WorkDir)
	if err != nil {
		return nil, Stats{}, err
	}
	defer r.close()
	if err := r.collect(); err != nil {
		return nil, Stats{}, err
	}
	cfg := sketch.Config{K: opts.SketchK, BloomBitsPerValue: opts.SketchBloomBitsPerValue}
	if err := r.extract(true, opts.SketchPrefilter, cfg); err != nil {
		return nil, Stats{}, err
	}
	var pre *ind.SketchPretestOptions
	if opts.SketchPrefilter {
		// No ExactRefutation here: a provably missing value refutes the
		// exact IND, never a partial one. The cut-off defaults to σ.
		pre = &ind.SketchPretestOptions{MinContainment: cmp.Or(opts.SketchMinContainment, opts.Threshold)}
	}
	if err := r.candidates(ind.GenOptions{PartialThreshold: opts.Threshold}, 0, pre); err != nil {
		return nil, Stats{}, err
	}

	var res *ind.PartialResult
	if opts.Algorithm == BruteForce {
		res, err = ind.BruteForcePartial(r.cands, ind.PartialOptions{Threshold: opts.Threshold, Counter: &r.counter, Store: r.read})
	} else {
		res, err = ind.PartialSpiderMerge(r.cands, opts.Threshold, ind.SpiderMergeOptions{Counter: &r.counter, Store: r.read})
	}
	if err != nil {
		return nil, Stats{}, err
	}
	var out []PartialIND
	for _, m := range res.Satisfied {
		out = append(out, PartialIND{Dep: ColumnRef(m.Dep), Ref: ColumnRef(m.Ref), Coverage: m.Coverage, Missing: m.Missing})
	}
	return out, r.trailer(res.Stats), nil
}

// EmbeddedIND is an inclusion between transformed dependent values and a
// referenced attribute, e.g. xrefs.pdb_ref[after-dash] ⊆ entries.code.
type EmbeddedIND struct {
	Dep       ColumnRef
	Transform string
	Ref       ColumnRef
}

// String renders the embedded IND.
func (e EmbeddedIND) String() string {
	return fmt.Sprintf("%s[%s] ⊆ %s", e.Dep, e.Transform, e.Ref)
}

// NaryIND is a satisfied n-ary inclusion dependency; Dep[i] pairs with
// Ref[i].
type NaryIND struct {
	Dep, Ref []ColumnRef
}

// String renders the IND as (a, b) ⊆ (x, y).
func (n NaryIND) String() string {
	render := func(cols []ColumnRef) string {
		out := ""
		for i, c := range cols {
			if i > 0 {
				out += ", "
			}
			out += c.String()
		}
		return out
	}
	return fmt.Sprintf("(%s) ⊆ (%s)", render(n.Dep), render(n.Ref))
}

// NaryOptions tunes FindNaryINDs.
type NaryOptions struct {
	// MaxArity bounds the levelwise search (default 4).
	MaxArity int
	// Algorithm selects the verification engine: InMemory (the default;
	// cached distinct-tuple hash sets) or SpiderMerge (one sorted
	// encoded-tuple stream per candidate column list and a single heap
	// merge per level, the same machinery
	// FindINDs uses for unary INDs). Both return identical results; the
	// merge engine holds one sorted tuple set per extraction worker
	// while it stages a level, instead of caching every list's tuple
	// set for the whole search. The zero value selects InMemory.
	Algorithm Algorithm
	// WorkDir roots the fs backend; see Options.WorkDir. Only
	// SpiderMerge stages value sets (the unary seed's and the per-level
	// tuple sets); InMemory keeps every level, the unary seed included,
	// in memory whatever WorkDir and Store say.
	WorkDir string
	// LevelProgress, when non-nil, receives one report per completed
	// level (including the arity-1 seed) as soon as its verdicts are in.
	LevelProgress func(NaryLevelProgress)
	// Deprecated: unread; perfbench/ still sets it.
	Format Format
	// Store selects the dataset backend for SpiderMerge's unary seed
	// value sets and per-level encoded tuple sets; see Options.Store.
	// The mem, snapshot and spill backends keep the whole levelwise
	// search off disk.
	Store *Store
}

// NaryLevelProgress is one completed level's summary, delivered to
// NaryOptions.LevelProgress the moment the level finishes.
type NaryLevelProgress struct {
	Arity      int
	Candidates int
	Satisfied  int
	ItemsRead  int64
	Duration   time.Duration
}

// NaryStats extends Stats with the levelwise breakdown of an n-ary run.
type NaryStats struct {
	Stats
	// CandidatesByArity / SatisfiedByArity / ItemsReadByArity count per
	// level (index = arity; entry 1 is the unary seed); LevelDurations
	// holds each level's wall time.
	CandidatesByArity []int
	SatisfiedByArity  []int
	ItemsReadByArity  []int64
	// BytesReadByArity counts the raw value-set bytes pulled per level;
	// it is the per-arity breakdown of Stats.BytesRead.
	BytesReadByArity []int64
	LevelDurations   []time.Duration
	// Truncated reports that a level exceeded the candidate cap; the
	// returned INDs still cover every arity below StoppedAtArity.
	Truncated      bool
	StoppedAtArity int
}

// FindNaryINDs performs levelwise n-ary IND discovery (the multivalued
// INDs of the paper's Sec 6 discussion, following De Marchi et al.'s
// MIND): candidates of arity k are generated from satisfied INDs of
// arity k-1 and verified against distinct tuple sets — in memory, or by
// the merge-backed engine when Algorithm is SpiderMerge. Only INDs of
// arity ≥ 2 are returned; use FindINDs for the unary level. Stats
// reports the candidates tested across all arities and the satisfied
// INDs of arity ≥ 2; Comparisons counts tuple probes. On pathological
// schemas the search truncates (never errors) once a level exceeds the
// internal candidate cap; see NaryStats.Truncated.
func FindNaryINDs(db *Database, opts NaryOptions) ([]NaryIND, NaryStats, error) {
	engine := ind.NaryTupleSets
	switch opts.Algorithm {
	case SpiderMerge:
		engine = ind.NaryMerge
	case InMemory, BruteForce: // BruteForce is the zero value: the default engine
	default:
		return nil, NaryStats{}, fmt.Errorf("spider: n-ary discovery supports InMemory or SpiderMerge, not %v", opts.Algorithm)
	}
	r, err := openRun(db, opts.Store, opts.WorkDir)
	if err != nil {
		return nil, NaryStats{}, err
	}
	defer r.close()
	inOpts := ind.NaryOptions{
		MaxArity:  opts.MaxArity,
		Algorithm: engine,
		Scratch:   r.write,
		Store:     r.read,
	}
	if opts.LevelProgress != nil {
		inOpts.LevelProgress = func(p ind.LevelProgress) { opts.LevelProgress(NaryLevelProgress(p)) }
	}
	res, err := ind.DiscoverNary(r.db, inOpts)
	if err != nil {
		return nil, NaryStats{}, err
	}
	var out []NaryIND
	for _, d := range res.Satisfied {
		out = append(out, NaryIND{Dep: publicRefs(d.Dep), Ref: publicRefs(d.Ref)})
	}
	st := NaryStats{
		Stats: Stats{
			Satisfied:   len(out),
			ItemsRead:   res.Stats.ItemsRead,
			BytesRead:   res.Stats.BytesRead,
			Comparisons: res.Stats.TuplesCompared,
			Duration:    res.Stats.Duration,
		},
		CandidatesByArity: res.Stats.CandidatesByArity,
		SatisfiedByArity:  res.Stats.SatisfiedByArity,
		ItemsReadByArity:  res.Stats.ItemsReadByArity,
		BytesReadByArity:  res.Stats.BytesReadByArity,
		LevelDurations:    res.Stats.LevelDurations,
		Truncated:         res.Truncated,
		StoppedAtArity:    res.StoppedAtArity,
	}
	for _, n := range res.Stats.CandidatesByArity {
		st.Candidates += n
	}
	return out, st, nil
}

// EmbeddedOptions tunes FindEmbeddedINDsWith.
type EmbeddedOptions struct {
	// Algorithm selects the engine: BruteForce (the default; one
	// Algorithm 1 pass per derived candidate, re-reading referenced
	// files) or SpiderMerge (every derived value set becomes one
	// synthetic attribute and all candidates are decided in a single heap
	// merge, reading each referenced file at most once). Results are
	// identical.
	Algorithm Algorithm
	// WorkDir roots the fs backend; see Options.WorkDir.
	WorkDir string
	// Store selects the dataset backend; see Options.Store. The
	// exported value sets and the derived ones (keys derived_*) share
	// it.
	Store *Store
}

// FindEmbeddedINDs discovers inclusions of embedded values (the paper's
// "PDB-144f" example) using the standard transforms: after-dash,
// before-dash and lowercase.
func FindEmbeddedINDs(db *Database) ([]EmbeddedIND, Stats, error) {
	return FindEmbeddedINDsWith(db, EmbeddedOptions{})
}

// FindEmbeddedINDsWith is FindEmbeddedINDs with engine control: the
// merge-front engine folds all derived value sets into one shared heap
// merge instead of testing them one candidate at a time.
func FindEmbeddedINDsWith(db *Database, opts EmbeddedOptions) ([]EmbeddedIND, Stats, error) {
	engine := ind.EmbeddedAlgorithmOne
	switch opts.Algorithm {
	case SpiderMerge:
		engine = ind.EmbeddedMerge
	case BruteForce:
	default:
		return nil, Stats{}, fmt.Errorf("spider: embedded IND discovery supports BruteForce or SpiderMerge, not %v", opts.Algorithm)
	}
	r, err := openRun(db, opts.Store, opts.WorkDir)
	if err != nil {
		return nil, Stats{}, err
	}
	defer r.close()
	if err := r.collect(); err != nil {
		return nil, Stats{}, err
	}
	if err := r.extract(true, false, sketch.Config{}); err != nil {
		return nil, Stats{}, err
	}
	// Derived value sets join the base exports in the same dataset; the
	// snapshot read side is a view of it and sees them at once.
	res, err := ind.FindEmbedded(r.db, r.attrs, ind.EmbeddedOptions{
		Counter:   &r.counter,
		Algorithm: engine,
		Scratch:   r.write,
		Store:     r.read,
	})
	if err != nil {
		return nil, Stats{}, err
	}
	var out []EmbeddedIND
	for _, e := range res.Satisfied {
		out = append(out, EmbeddedIND{Dep: ColumnRef(e.Dep), Transform: e.Transform, Ref: ColumnRef(e.Ref)})
	}
	return out, r.trailer(res.Stats), nil
}
