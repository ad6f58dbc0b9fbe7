package spider

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"spider/internal/extsort"
	"spider/internal/ind"
	"spider/internal/sketch"
	"spider/internal/valfile"
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
	// WorkDir receives sorted value files; temporary when empty.
	WorkDir string
	// Algorithm selects the verification engine: BruteForce (the
	// default, the paper-style per-candidate scans) or SpiderMerge (one
	// pass over all attributes via the count-carrying k-way heap merge).
	// Both return identical results.
	Algorithm Algorithm
	// Shards (SpiderMerge only) partitions the canonical value space into
	// that many disjoint ranges merged concurrently; 0 or 1 keeps the
	// single-threaded merge. The output is identical at any shard count.
	// Boundaries follow the KMV samples SketchPrefilter builds, and the
	// min/max key range without them; see Options.Shards.
	Shards int
	// ExportWorkers bounds the attribute-export worker pool; 0 selects
	// GOMAXPROCS, 1 exports sequentially.
	ExportWorkers int
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
	// Format selects the on-disk encoding of exported value files and
	// frozen spill runs; see Options.Format.
	Format Format
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
	if opts.SketchMinContainment < 0 || opts.SketchMinContainment > 1 {
		return nil, Stats{}, fmt.Errorf("spider: SketchMinContainment must be in [0, 1], got %v", opts.SketchMinContainment)
	}
	switch opts.Algorithm {
	case BruteForce, SpiderMerge:
	default:
		return nil, Stats{}, fmt.Errorf("spider: partial IND discovery supports BruteForce or SpiderMerge, not %v", opts.Algorithm)
	}
	if opts.Algorithm != SpiderMerge && opts.Shards > 1 {
		return nil, Stats{}, fmt.Errorf("spider: Shards require Algorithm SpiderMerge")
	}

	workDir := opts.WorkDir
	if workDir == "" && opts.Store.needsDir() {
		tmp, err := os.MkdirTemp("", "spider-partial-*")
		if err != nil {
			return nil, Stats{}, err
		}
		defer os.RemoveAll(tmp)
		workDir = tmp
	}
	writeDS, readDS, release := opts.Store.datasets(workDir)
	defer release()
	attrs, err := ind.CollectAttributes(db.rel)
	if err != nil {
		return nil, Stats{}, err
	}

	// Extraction, hoisted before candidate generation so that sketches
	// (built in the same pass) exist by the time the pre-filter runs.
	err = ind.ExportAttributes(db.rel, attrs, ind.ExportConfig{
		Dataset: writeDS,
		Dir:     workDir, Workers: workerPool(opts.ExportWorkers),
		Format:   opts.Format.internal(),
		Sketches: opts.SketchPrefilter,
		SketchConfig: sketch.Config{
			K: opts.SketchK, BloomBitsPerValue: opts.SketchBloomBitsPerValue,
		},
	})
	if err != nil {
		return nil, Stats{}, err
	}

	cands, _ := ind.GenerateCandidates(attrs, ind.GenOptions{PartialThreshold: opts.Threshold})
	var sketchStats ind.SketchPretestStats
	if opts.SketchPrefilter {
		cut := opts.SketchMinContainment
		if cut == 0 {
			cut = opts.Threshold // validated to (0, 1] above
		}
		// No ExactRefutation here: a provably missing value refutes the
		// exact IND, never a partial one.
		cands, sketchStats = ind.SketchPretest(cands, ind.SketchPretestOptions{MinContainment: cut})
	}

	var counter valfile.ReadCounter
	var res *ind.PartialResult
	if opts.Algorithm == BruteForce {
		res, err = ind.BruteForcePartial(cands, ind.PartialOptions{Threshold: opts.Threshold, Counter: &counter, Store: readDS})
	} else {
		res, err = ind.PartialSpiderMerge(cands, opts.Threshold, ind.SpiderMergeOptions{
			Counter: &counter, Store: readDS, Shards: opts.Shards,
		})
	}
	if err != nil {
		return nil, Stats{}, err
	}
	res.Stats.CandidatesPruned = sketchStats.Pruned
	res.Stats.SketchBytes = sketchStats.SketchBytes
	var out []PartialIND
	for _, m := range res.Satisfied {
		out = append(out, PartialIND{
			Dep:      ColumnRef{Table: m.Dep.Table, Column: m.Dep.Column},
			Ref:      ColumnRef{Table: m.Ref.Table, Column: m.Ref.Column},
			Coverage: m.Coverage,
			Missing:  m.Missing,
		})
	}
	return out, convertStats(res.Stats), nil
}

// workerPool resolves a worker-count option to a pool size.
func workerPool(n int) int {
	if n == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
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
	// encoded-tuple stream per candidate column list and a single —
	// optionally sharded — heap merge per level, the same machinery
	// FindINDs uses for unary INDs). Both return identical results; the
	// merge engine's peak memory is bounded by the external-sort buffers
	// instead of the tuple-set sizes. The zero value selects InMemory.
	Algorithm Algorithm
	// WorkDir receives the sorted value files (unary seed and, with
	// SpiderMerge, the per-level tuple files). With InMemory a non-empty
	// WorkDir upgrades only the unary seed to the file-backed SpiderMerge
	// path; temporary when empty.
	WorkDir string
	// Shards (SpiderMerge only) partitions each level's value space into
	// that many disjoint ranges merged concurrently; 0 or 1 keeps the
	// single-threaded merge. The output is identical at any shard count.
	Shards int
	// ExportWorkers bounds the tuple-extraction worker pool; 0 selects
	// GOMAXPROCS, 1 extracts sequentially. With overlapped levels it
	// also bounds concurrent speculative next-level extractions.
	ExportWorkers int
	// SequentialLevels (SpiderMerge only) opts out of the overlapped
	// pipeline: by default independent table-pair candidate groups are
	// verified concurrently and the next level's tuple streams are
	// extracted speculatively while the current level is still merging.
	// Results are identical either way.
	SequentialLevels bool
	// LevelProgress, when non-nil, receives one report per completed
	// level (including the arity-1 seed) as soon as its verdicts are in.
	LevelProgress func(NaryLevelProgress)
	// Format selects the on-disk encoding of the sorted tuple files and
	// frozen spill runs; see Options.Format.
	Format Format
	// Store selects the dataset backend for the unary seed's value sets
	// and the per-level encoded tuple sets; see Options.Store. The mem
	// and snapshot backends keep the whole levelwise search off disk
	// (external-sort spills excepted).
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
	// BytesReadByArity counts the raw value-file bytes pulled per level;
	// it is the per-arity breakdown of Stats.BytesRead and the metric
	// that compares the text and block encodings' tuple-stream I/O.
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
	if engine != ind.NaryMerge && opts.Shards > 1 {
		return nil, NaryStats{}, fmt.Errorf("spider: Shards require Algorithm SpiderMerge")
	}
	inOpts := ind.NaryOptions{
		MaxArity:         opts.MaxArity,
		Algorithm:        engine,
		WorkDir:          opts.WorkDir,
		Shards:           opts.Shards,
		ExportWorkers:    opts.ExportWorkers,
		SequentialLevels: opts.SequentialLevels,
		Sort:             extsort.Config{Format: opts.Format.internal()},
	}
	// The nil fs-without-root case keeps the legacy plumbing (temporary
	// work directory managed inside DiscoverNary); any other store maps
	// onto the write (scratch) and read (engine) dataset pair.
	if opts.Store != nil && !(opts.Store.needsDir() && opts.WorkDir == "") {
		var release func()
		inOpts.Scratch, inOpts.Store, release = opts.Store.datasets(opts.WorkDir)
		defer release()
	}
	if opts.LevelProgress != nil {
		inOpts.LevelProgress = func(p ind.LevelProgress) {
			opts.LevelProgress(NaryLevelProgress{
				Arity:      p.Arity,
				Candidates: p.Candidates,
				Satisfied:  p.Satisfied,
				ItemsRead:  p.ItemsRead,
				Duration:   p.Duration,
			})
		}
	}
	res, err := ind.DiscoverNary(db.rel, inOpts)
	if err != nil {
		return nil, NaryStats{}, err
	}
	var out []NaryIND
	for _, d := range res.Satisfied {
		n := NaryIND{}
		for i := range d.Dep {
			n.Dep = append(n.Dep, ColumnRef{Table: d.Dep[i].Table, Column: d.Dep[i].Column})
			n.Ref = append(n.Ref, ColumnRef{Table: d.Ref[i].Table, Column: d.Ref[i].Column})
		}
		out = append(out, n)
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
	// synthetic attribute and all candidates are decided in a single —
	// optionally sharded — heap merge, reading each referenced file at
	// most once). Results are identical.
	Algorithm Algorithm
	// WorkDir receives the exported and derived value files; temporary
	// when empty.
	WorkDir string
	// Shards (SpiderMerge only) partitions the canonical value space
	// into that many disjoint ranges merged concurrently; 0 or 1 keeps
	// the single merge.
	Shards int
	// Format selects the on-disk encoding of the exported and derived
	// value files; see Options.Format.
	Format Format
	// Store selects the dataset backend for the exported and derived
	// value sets; see Options.Store.
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
	switch opts.Algorithm {
	case BruteForce, SpiderMerge:
	default:
		return nil, Stats{}, fmt.Errorf("spider: embedded IND discovery supports BruteForce or SpiderMerge, not %v", opts.Algorithm)
	}
	if opts.Shards > 1 && opts.Algorithm != SpiderMerge {
		return nil, Stats{}, fmt.Errorf("spider: Shards require Algorithm SpiderMerge")
	}
	engine := ind.EmbeddedAlgorithmOne
	if opts.Algorithm == SpiderMerge {
		engine = ind.EmbeddedMerge
	}
	workDir := opts.WorkDir
	if workDir == "" && !opts.Store.noValueFiles() {
		tmp, err := os.MkdirTemp("", "spider-embedded-*")
		if err != nil {
			return nil, Stats{}, err
		}
		defer os.RemoveAll(tmp)
		workDir = tmp
	}
	writeDS, readDS, release := opts.Store.datasets(workDir)
	defer release()
	attrs, err := ind.Prepare(db.rel, ind.ExportConfig{
		Dataset: writeDS,
		Dir:     workDir,
		Format:  opts.Format.internal(),
	})
	if err != nil {
		return nil, Stats{}, err
	}
	var counter valfile.ReadCounter
	embOpts := ind.EmbeddedOptions{
		Counter:   &counter,
		Algorithm: engine,
		Store:     readDS,
		Shards:    opts.Shards,
		Format:    opts.Format.internal(),
	}
	if opts.Store.noValueFiles() {
		// Derived value sets join the base exports in the same dataset;
		// the snapshot read side faults them in on first open.
		embOpts.Scratch = writeDS
	} else {
		embOpts.Dir = workDir + "/derived"
	}
	res, err := ind.FindEmbedded(db.rel, attrs, embOpts)
	if err != nil {
		return nil, Stats{}, err
	}
	var out []EmbeddedIND
	for _, e := range res.Satisfied {
		out = append(out, EmbeddedIND{
			Dep:       ColumnRef{Table: e.Dep.Table, Column: e.Dep.Column},
			Transform: e.Transform,
			Ref:       ColumnRef{Table: e.Ref.Table, Column: e.Ref.Column},
		})
	}
	return out, convertStats(res.Stats), nil
}
