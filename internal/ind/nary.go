package ind

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"spider/internal/extsort"
	"spider/internal/relstore"
	"spider/internal/store"
	"spider/internal/valfile"
)

// The paper closes its related-work discussion with: "We believe that our
// algorithms for finding unary INDs more efficiently than with pure SQL
// will also be beneficial for finding multivalued INDs" (Sec 6, following
// De Marchi et al.'s levelwise approach and Koeller & Rundensteiner).
// This file supplies that layer: levelwise n-ary IND discovery seeded by
// the unary INDs any of this package's algorithms produce.
//
// An n-ary IND (A1,...,An) ⊆ (B1,...,Bn) holds when every tuple of
// values of the dependent column list also occurs as a tuple of the
// referenced column list; all Ai must come from one table and all Bi
// from one table. Candidates are generated apriori-style: a candidate of
// arity k is viable only if all of its arity-(k-1) projections are
// satisfied (the classic MIND pruning). Reflexive positions (a column
// paired with itself) are trivial and excluded at every arity.
//
// Two verification engines are available per level: the in-memory
// reference engine (distinct-tuple hash sets, one probe loop per
// candidate) and the merge-backed engine of narymerge.go, which carries
// the Sec 6 belief through — the same sorted-stream heap merge that
// verifies unary INDs verifies each level's composite tuples in one
// (optionally sharded) pass.

// NaryIND is a satisfied n-ary inclusion dependency; Dep[i] pairs with
// Ref[i].
type NaryIND struct {
	Dep, Ref []relstore.ColumnRef
}

// Arity returns the number of column pairs.
func (n NaryIND) Arity() int { return len(n.Dep) }

// String renders the IND as (a, b) ⊆ (x, y).
func (n NaryIND) String() string {
	var d, r []string
	for i := range n.Dep {
		d = append(d, n.Dep[i].String())
		r = append(r, n.Ref[i].String())
	}
	return fmt.Sprintf("(%s) ⊆ (%s)", strings.Join(d, ", "), strings.Join(r, ", "))
}

// NaryEngine selects the verification engine of DiscoverNary.
type NaryEngine int

const (
	// NaryTupleSets verifies each candidate against cached in-memory
	// distinct-tuple hash sets — the reference engine. Memory grows with
	// the number of distinct tuples per column list.
	NaryTupleSets NaryEngine = iota
	// NaryMerge exports, per level, one sorted encoded-tuple stream per
	// candidate column list and verifies all of the level's candidates in
	// a single (optionally sharded) SpiderMerge heap merge — the same
	// count-free k-way merge the unary engine uses. Peak memory is
	// bounded by the external-sort buffers, not by tuple-set sizes.
	NaryMerge
)

// String names the engine.
func (e NaryEngine) String() string {
	switch e {
	case NaryTupleSets:
		return "tuple-sets"
	case NaryMerge:
		return "merge"
	default:
		return fmt.Sprintf("NaryEngine(%d)", int(e))
	}
}

// NaryOptions tunes DiscoverNary.
type NaryOptions struct {
	// MaxArity bounds the levelwise search (default 4).
	MaxArity int
	// MaxCandidatesPerLevel truncates the search on pathological schemas
	// (default 100000): when a level generates more candidates, the
	// already-verified lower-arity results are returned with
	// NaryResult.Truncated set instead of an error.
	MaxCandidatesPerLevel int
	// Algorithm selects the verification engine: NaryTupleSets (the
	// default, in-memory reference) or NaryMerge (sorted tuple streams +
	// one heap merge per level).
	Algorithm NaryEngine
	// WorkDir receives the sorted value files (unary seed and, for the
	// NaryMerge engine, one encoded tuple file per column list and
	// level). With the NaryTupleSets engine a non-empty WorkDir upgrades
	// only the unary seed to the file-backed SpiderMerge path; levels ≥ 2
	// stay in memory. The NaryMerge engine creates (and removes) a
	// temporary directory when WorkDir is empty. The caller owns a
	// non-empty WorkDir.
	WorkDir string
	// Store serves the unary attributes' value sets to the merge engines
	// (and, unless Scratch is set, receives the unary seed's exports);
	// nil exports to and reads the sorted value files under WorkDir.
	Store store.Dataset
	// Scratch receives the per-level encoded tuple sets of the NaryMerge
	// engine; nil selects a filesystem dataset rooted at WorkDir,
	// reproducing the historical on-disk layout.
	Scratch store.Dataset
	// Shards (NaryMerge only) partitions each level's encoded value
	// space into that many disjoint ranges merged concurrently; 0 or 1
	// keeps the single-threaded merge. Output is identical at any shard
	// count.
	Shards int
	// ExportWorkers bounds the tuple-extraction worker pool; 0 selects
	// GOMAXPROCS, 1 extracts sequentially. With overlapped levels it also
	// bounds concurrent speculative next-level extractions.
	ExportWorkers int
	// SequentialLevels (NaryMerge only) opts out of the overlapped
	// pipeline: by default each level's independent table-pair candidate
	// groups are verified as concurrent merge fronts, and the next
	// level's tuple streams are speculatively extracted while the rest of
	// the current level is still merging. Output is byte-identical either
	// way; set SequentialLevels for the strictly level-at-a-time
	// reference behaviour.
	SequentialLevels bool
	// Sort is the base external-sort configuration for tuple extraction
	// (on-level and speculative); its TempDir defaults to WorkDir. Mainly
	// a testing hook for forcing tiny spill buffers.
	Sort extsort.Config
	// LevelProgress, when non-nil, receives one report per completed
	// level (including the arity-1 seed) as soon as its verdicts are in,
	// enabling incremental progress display during long searches.
	LevelProgress func(LevelProgress)
}

// LevelProgress is one completed level's summary, delivered to
// NaryOptions.LevelProgress the moment the level finishes.
type LevelProgress struct {
	Arity      int
	Candidates int
	Satisfied  int
	ItemsRead  int64
	Duration   time.Duration
}

// NaryStats reports the levelwise search effort.
type NaryStats struct {
	// CandidatesByArity / SatisfiedByArity count per level (index =
	// arity; entry 0 unused, entry 1 is the unary seed).
	CandidatesByArity []int
	SatisfiedByArity  []int
	// ItemsReadByArity counts values read from sorted streams per level
	// (merge-backed levels only; in-memory levels read no streams).
	ItemsReadByArity []int64
	// BytesReadByArity counts raw bytes pulled from the per-level value
	// streams (merge-backed levels only). Levels >= 2 stream encoded
	// tuples with long shared prefixes, so this is where the block
	// format's front coding shows up against the text format.
	BytesReadByArity []int64
	// TuplesCompared counts tuple probes: hash-set probes for the
	// reference engine, merge-front comparisons for the merge engine.
	TuplesCompared int64
	// ItemsRead totals ItemsReadByArity; it is accumulated incrementally
	// as levels finish, not recomputed at the end. BytesRead totals
	// BytesReadByArity the same way.
	ItemsRead int64
	BytesRead int64
	// LevelDurations holds per-level wall time (index = arity; entry 0
	// unused), filled as each level completes.
	LevelDurations []time.Duration
	Duration       time.Duration
}

// NaryResult is the outcome of DiscoverNary: all satisfied INDs of arity
// ≥ 2 (the unary seed is the caller's).
type NaryResult struct {
	Satisfied []NaryIND
	// Truncated reports that a level exceeded MaxCandidatesPerLevel; the
	// result still holds every IND verified below StoppedAtArity.
	Truncated bool
	// StoppedAtArity is the first arity that was not verified (0 when the
	// search ran to completion).
	StoppedAtArity int
	Stats          NaryStats
}

// pairKey identifies one dep⊆ref column pair.
type pairKey struct {
	dep, ref relstore.ColumnRef
}

// naryCand is a candidate: sorted pair list over one table pair.
type naryCand struct {
	depTable, refTable string
	pairs              []pairKey // sorted by dep column name
}

func (c naryCand) key() string {
	var b strings.Builder
	for _, p := range c.pairs {
		b.WriteString(p.dep.String())
		b.WriteByte(1)
		b.WriteString(p.ref.String())
		b.WriteByte(2)
	}
	return b.String()
}

// levelVerifier decides one level's candidates in bulk; the verdict slice
// aligns with cands. close releases any background resources (the
// overlapped verifier cancels in-flight speculative extractions); it must
// be safe to call after an error and more than once.
type levelVerifier interface {
	verifyLevel(arity int, cands []naryCand) ([]bool, error)
	close()
}

// tupleLevelVerifier adapts the per-candidate tupleVerifier to the
// level-at-a-time interface.
type tupleLevelVerifier struct {
	v *tupleVerifier
}

func (t *tupleLevelVerifier) verifyLevel(arity int, cands []naryCand) ([]bool, error) {
	out := make([]bool, len(cands))
	for i, c := range cands {
		ok, err := t.v.holds(c)
		if err != nil {
			return nil, err
		}
		out[i] = ok
	}
	return out, nil
}

func (t *tupleLevelVerifier) close() {}

// DiscoverNary performs the levelwise search over db. The unary level is
// computed internally — unlike the unary discovery of Sec 2 (where
// referenced attributes must be unique columns to be foreign-key
// targets), n-ary INDs may reference non-unique columns, so level 1 here
// admits every non-empty non-LOB column on both sides.
func DiscoverNary(db *relstore.Database, opts NaryOptions) (*NaryResult, error) {
	if opts.MaxArity <= 0 {
		opts.MaxArity = 4
	}
	if opts.MaxArity < 2 {
		opts.MaxArity = 2
	}
	if opts.MaxCandidatesPerLevel <= 0 {
		opts.MaxCandidatesPerLevel = 100_000
	}
	if opts.Algorithm != NaryMerge && opts.Shards > 1 {
		return nil, fmt.Errorf("ind: Shards require the NaryMerge engine, not %v", opts.Algorithm)
	}
	workDir := opts.WorkDir
	if opts.Algorithm == NaryMerge && workDir == "" && opts.Scratch == nil {
		tmp, err := os.MkdirTemp("", "spider-nary-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		workDir = tmp
	}
	start := time.Now()
	res := &NaryResult{}
	res.Stats.CandidatesByArity = make([]int, opts.MaxArity+1)
	res.Stats.SatisfiedByArity = make([]int, opts.MaxArity+1)
	res.Stats.ItemsReadByArity = make([]int64, opts.MaxArity+1)
	res.Stats.BytesReadByArity = make([]int64, opts.MaxArity+1)
	res.Stats.LevelDurations = make([]time.Duration, opts.MaxArity+1)

	verifier := newTupleVerifier(db, &res.Stats)
	var levels levelVerifier
	if opts.Algorithm == NaryMerge {
		scratch := opts.Scratch
		if scratch == nil {
			scratch = store.NewFS(workDir, opts.Sort.Format)
		}
		m := &mergeLevelVerifier{db: db, opts: opts, workDir: workDir, scratch: scratch, stats: &res.Stats}
		if opts.SequentialLevels {
			levels = m
		} else {
			levels = newOverlapVerifier(m)
		}
	} else {
		levels = &tupleLevelVerifier{v: verifier}
	}
	defer levels.close()

	// emitLevel finalises one completed level: per-level wall time, the
	// incremental ItemsRead total, and the optional progress callback.
	emitLevel := func(arity int, levelStart time.Time) {
		res.Stats.LevelDurations[arity] = time.Since(levelStart)
		res.Stats.ItemsRead += res.Stats.ItemsReadByArity[arity]
		res.Stats.BytesRead += res.Stats.BytesReadByArity[arity]
		if opts.LevelProgress != nil {
			opts.LevelProgress(LevelProgress{
				Arity:      arity,
				Candidates: res.Stats.CandidatesByArity[arity],
				Satisfied:  res.Stats.SatisfiedByArity[arity],
				ItemsRead:  res.Stats.ItemsReadByArity[arity],
				Duration:   res.Stats.LevelDurations[arity],
			})
		}
	}

	// Level 1 over all eligible columns.
	attrs, err := CollectAttributes(db)
	if err != nil {
		return nil, err
	}
	var eligible []*Attribute
	for _, a := range attrs {
		if a.DependentCandidate() { // non-empty, non-LOB
			eligible = append(eligible, a)
		}
	}
	satisfiedKeys := make(map[string]bool)
	current, err := unarySeed(db, eligible, opts, workDir, verifier, res, satisfiedKeys)
	if err != nil {
		return nil, err
	}
	sort.Slice(current, func(i, j int) bool { return current[i].key() < current[j].key() })
	emitLevel(1, start)

	for arity := 2; arity <= opts.MaxArity && len(current) > 0; arity++ {
		levelStart := time.Now()
		cands := generateLevel(current, satisfiedKeys)
		res.Stats.CandidatesByArity[arity] = len(cands)
		if len(cands) > opts.MaxCandidatesPerLevel {
			// Truncate rather than abort: every IND verified at lower
			// arities is already in res and stays valid.
			res.Truncated = true
			res.StoppedAtArity = arity
			break
		}
		verdicts, err := levels.verifyLevel(arity, cands)
		if err != nil {
			return nil, err
		}
		var next []naryCand
		for i, c := range cands {
			if !verdicts[i] {
				continue
			}
			satisfiedKeys[c.key()] = true
			next = append(next, c)
			res.Satisfied = append(res.Satisfied, NaryIND{
				Dep: pairDeps(c.pairs), Ref: pairRefs(c.pairs),
			})
			res.Stats.SatisfiedByArity[arity]++
		}
		current = next
		emitLevel(arity, levelStart)
	}
	res.Stats.Duration = time.Since(start)
	return res, nil
}

// naryWorkers resolves a worker-count option to a pool size.
func naryWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// unarySeed computes the satisfied arity-1 inclusions over the eligible
// columns, recording them into res and satisfiedKeys. The NaryMerge
// engine (or, for the tuple-sets engine, a non-empty WorkDir) verifies
// all pairs in one SpiderMerge pass over exported value files or
// spill-run streams; otherwise each pair probes the in-memory tuple sets.
func unarySeed(db *relstore.Database, eligible []*Attribute, opts NaryOptions, workDir string, verifier *tupleVerifier, res *NaryResult, satisfiedKeys map[string]bool) ([]naryCand, error) {
	record := func(dep, ref relstore.ColumnRef) naryCand {
		c := naryCand{
			depTable: dep.Table, refTable: ref.Table,
			pairs: []pairKey{{dep: dep, ref: ref}},
		}
		res.Stats.SatisfiedByArity[1]++
		satisfiedKeys[c.key()] = true
		return c
	}

	if opts.Algorithm == NaryMerge || workDir != "" || opts.Store != nil {
		var cands []Candidate
		for _, d := range eligible {
			for _, r := range eligible {
				if d.Ref == r.Ref {
					continue
				}
				res.Stats.CandidatesByArity[1]++
				if d.Distinct > r.Distinct {
					continue
				}
				cands = append(cands, Candidate{Dep: d, Ref: r})
			}
		}
		var counter valfile.ReadCounter
		merged, err := mergeUnarySeed(db, eligible, cands, opts, workDir, &counter)
		if err != nil {
			return nil, err
		}
		res.Stats.ItemsReadByArity[1] = counter.Total()
		res.Stats.BytesReadByArity[1] = counter.TotalBytes()
		res.Stats.TuplesCompared += merged.Stats.Comparisons
		var current []naryCand
		for _, d := range merged.Satisfied {
			current = append(current, record(d.Dep, d.Ref))
		}
		return current, nil
	}

	var current []naryCand
	for _, d := range eligible {
		for _, r := range eligible {
			if d.Ref == r.Ref {
				continue
			}
			res.Stats.CandidatesByArity[1]++
			if d.Distinct > r.Distinct {
				continue
			}
			c := naryCand{
				depTable: d.Ref.Table, refTable: r.Ref.Table,
				pairs: []pairKey{{dep: d.Ref, ref: r.Ref}},
			}
			ok, err := verifier.holds(c)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			current = append(current, record(c.pairs[0].dep, c.pairs[0].ref))
		}
	}
	return current, nil
}

// mergeUnarySeed verifies the unary seed candidates with the requested
// backend and shard count — the same plumbing FindINDs uses, reusing
// the real attribute value sets.
func mergeUnarySeed(db *relstore.Database, eligible []*Attribute, cands []Candidate, opts NaryOptions, workDir string, counter *valfile.ReadCounter) (*Result, error) {
	// Exports go to the write side: Scratch when the caller split the
	// dataset into a writable scratch and a read-only serving view
	// (the snapshot shape), Store otherwise.
	seedDS := opts.Store
	if opts.Scratch != nil {
		seedDS = opts.Scratch
	}
	err := ExportAttributes(db, eligible, ExportConfig{
		Dir:     workDir,
		Dataset: seedDS,
		Workers: naryWorkers(opts.ExportWorkers),
		Format:  opts.Sort.Format,
	})
	if err != nil {
		return nil, err
	}
	return SpiderMerge(cands, SpiderMergeOptions{Counter: counter, Store: opts.Store, Shards: opts.Shards})
}

func pairDeps(pairs []pairKey) []relstore.ColumnRef {
	out := make([]relstore.ColumnRef, len(pairs))
	for i, p := range pairs {
		out[i] = p.dep
	}
	return out
}

func pairRefs(pairs []pairKey) []relstore.ColumnRef {
	out := make([]relstore.ColumnRef, len(pairs))
	for i, p := range pairs {
		out[i] = p.ref
	}
	return out
}

// generateLevel joins satisfied arity-k INDs sharing their first k-1
// pairs into arity-(k+1) candidates, then applies the projection prune.
func generateLevel(current []naryCand, satisfied map[string]bool) []naryCand {
	var out []naryCand
	seen := make(map[string]bool)
	for i := 0; i < len(current); i++ {
		for j := i + 1; j < len(current); j++ {
			a, b := current[i], current[j]
			if a.depTable != b.depTable || a.refTable != b.refTable {
				continue
			}
			k := len(a.pairs)
			if !samePrefix(a.pairs, b.pairs, k-1) {
				continue
			}
			merged := joinPairs(a.pairs, b.pairs[k-1])
			if merged == nil {
				continue
			}
			c := naryCand{depTable: a.depTable, refTable: a.refTable, pairs: merged}
			key := c.key()
			if seen[key] {
				continue
			}
			seen[key] = true
			if !projectionsSatisfied(c, satisfied) {
				continue
			}
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key() < out[j].key() })
	return out
}

func samePrefix(a, b []pairKey, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// joinPairs appends extra to pairs if it keeps dep columns strictly
// increasing and introduces no duplicate dep or ref column.
func joinPairs(pairs []pairKey, extra pairKey) []pairKey {
	last := pairs[len(pairs)-1]
	if extra.dep.String() <= last.dep.String() {
		return nil
	}
	for _, p := range pairs {
		if p.dep == extra.dep || p.ref == extra.ref {
			return nil
		}
	}
	out := make([]pairKey, len(pairs), len(pairs)+1)
	copy(out, pairs)
	return append(out, extra)
}

// projectionsSatisfied checks the MIND prune: every arity-(k-1)
// projection of c must already be satisfied.
func projectionsSatisfied(c naryCand, satisfied map[string]bool) bool {
	for skip := range c.pairs {
		proj := make([]pairKey, 0, len(c.pairs)-1)
		for i, p := range c.pairs {
			if i != skip {
				proj = append(proj, p)
			}
		}
		if !satisfied[(naryCand{pairs: proj}).key()] {
			return false
		}
	}
	return true
}

// tupleVerifier materialises and caches distinct tuple sets per column
// list. Tuples containing NULL are ignored, the standard convention for
// n-ary INDs.
type tupleVerifier struct {
	db    *relstore.Database
	stats *NaryStats
	cache map[string]map[string]struct{}
}

func newTupleVerifier(db *relstore.Database, stats *NaryStats) *tupleVerifier {
	return &tupleVerifier{db: db, stats: stats, cache: make(map[string]map[string]struct{})}
}

func (v *tupleVerifier) holds(c naryCand) (bool, error) {
	depSet, err := v.tupleSet(c.depTable, pairDeps(c.pairs))
	if err != nil {
		return false, err
	}
	refSet, err := v.tupleSet(c.refTable, pairRefs(c.pairs))
	if err != nil {
		return false, err
	}
	if len(depSet) > len(refSet) {
		return false, nil
	}
	for t := range depSet {
		v.stats.TuplesCompared++
		if _, ok := refSet[t]; !ok {
			return false, nil
		}
	}
	return true, nil
}

func (v *tupleVerifier) tupleSet(table string, cols []relstore.ColumnRef) (map[string]struct{}, error) {
	var kb strings.Builder
	kb.WriteString(table)
	for _, c := range cols {
		kb.WriteByte(3)
		kb.WriteString(c.Column)
	}
	key := kb.String()
	if s, ok := v.cache[key]; ok {
		return s, nil
	}
	tab := v.db.Table(table)
	if tab == nil {
		return nil, fmt.Errorf("ind: unknown table %q", table)
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = tab.ColumnIndex(c.Column)
		if idx[i] < 0 {
			return nil, fmt.Errorf("ind: unknown column %s", c)
		}
	}
	// Tuples are keyed by the same injective encoding the merge engine
	// streams (see encodeTuple): a naive value+separator concatenation
	// would conflate distinct tuples whose components contain the
	// separator byte, e.g. ("x\x00", "y") and ("x", "\x00y").
	set := make(map[string]struct{})
	var b strings.Builder
	for r := 0; r < tab.RowCount(); r++ {
		if !encodeTuple(&b, tab.Row(r), idx) {
			continue
		}
		set[b.String()] = struct{}{}
	}
	v.cache[key] = set
	return set, nil
}
