package ind

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"spider/internal/extsort"
	"spider/internal/relstore"
	"spider/internal/store"
	"spider/internal/valfile"
	"spider/internal/value"
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
// Two verification engines are available, and the engine alone decides
// how every level, the unary seed included, is verified: the in-memory
// reference engine (distinct-tuple hash sets, one probe loop per
// candidate) and the merge-backed engine of narymerge.go, which carries
// the Sec 6 belief through — the same sorted-stream heap merge that
// verifies unary INDs verifies each level's composite tuples in one pass,
// over value sets it stages into an explicit dataset.

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
	// a single SpiderMerge heap merge — the same count-free k-way merge
	// the unary engine uses. Each list's tuple set is sorted in memory
	// and staged into the scratch dataset; no tuple set outlives its
	// level.
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
	// Deprecated: unread; perfbench/batch.go still sets it.
	WorkDir string
	// Scratch receives the NaryMerge engine's staged sets: the unary
	// seed's value sets and the per-level encoded tuple sets. Store
	// serves them back to the merge; the two differ only when the
	// dataset is split into a writable side and a read-only view (the
	// snapshot shape). Both are required by NaryMerge and unread by
	// NaryTupleSets, which keeps every level, the seed included, in
	// memory.
	Store   store.Dataset
	Scratch store.Dataset
	// Deprecated: unread; perfbench/batch.go still sets it.
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
	// tuples with long shared prefixes, which the block files' front
	// coding stores once per block.
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

// key identifies the candidate: the table and column names of its
// pairs, each escaped as a tuple component (appendEscaped) and ended by
// 0x00. Names may contain dots, so joining their table.column forms
// would give candidates over different tables one key.
func (c naryCand) key() string {
	n := 0
	for _, p := range c.pairs {
		n += len(p.dep.Table) + len(p.dep.Column) + len(p.ref.Table) + len(p.ref.Column) + 4
	}
	b := make([]byte, 0, n)
	for _, p := range c.pairs {
		for _, name := range [...]string{p.dep.Table, p.dep.Column, p.ref.Table, p.ref.Column} {
			b = append(appendEscaped(b, name), 0)
		}
	}
	return string(b)
}

// sortCands orders candidates by key, computing each key once.
func sortCands(cands []naryCand) {
	type keyed struct {
		key string
		c   naryCand
	}
	ks := make([]keyed, len(cands))
	for i, c := range cands {
		ks[i] = keyed{c.key(), c}
	}
	slices.SortFunc(ks, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	for i := range ks {
		cands[i] = ks[i].c
	}
}

// levelVerifier decides one level's candidates in bulk; the verdict slice
// aligns with cands.
type levelVerifier interface {
	verifyLevel(arity int, cands []naryCand) ([]bool, error)
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
	if opts.Algorithm == NaryMerge {
		if err := requireDataset(opts.Store, "NaryOptions.Store"); err != nil {
			return nil, err
		}
		if err := requireDataset(opts.Scratch, "NaryOptions.Scratch"); err != nil {
			return nil, err
		}
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
		levels = &mergeLevelVerifier{db: db, opts: opts, stats: &res.Stats}
	} else {
		levels = &tupleLevelVerifier{v: verifier}
	}

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
	current, err := unarySeed(db, eligible, opts, verifier, res, satisfiedKeys)
	if err != nil {
		return nil, err
	}
	sortCands(current)
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

// unarySeed computes the satisfied arity-1 inclusions over the eligible
// columns, recording them into res and satisfiedKeys. The NaryMerge
// engine verifies all pairs in one SpiderMerge pass over the staged
// value sets; the tuple-sets engine probes its in-memory tuple sets
// pair by pair.
func unarySeed(db *relstore.Database, eligible []*Attribute, opts NaryOptions, verifier *tupleVerifier, res *NaryResult, satisfiedKeys map[string]bool) ([]naryCand, error) {
	record := func(dep, ref relstore.ColumnRef) naryCand {
		c := naryCand{
			depTable: dep.Table, refTable: ref.Table,
			pairs: []pairKey{{dep: dep, ref: ref}},
		}
		res.Stats.SatisfiedByArity[1]++
		satisfiedKeys[c.key()] = true
		return c
	}

	if opts.Algorithm == NaryMerge {
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
		merged, err := mergeUnarySeed(db, eligible, cands, opts, &counter)
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

// mergeUnarySeed verifies the unary seed candidates the way FindINDs
// does: export the attribute value sets into Scratch, merge them out
// of Store.
func mergeUnarySeed(db *relstore.Database, eligible []*Attribute, cands []Candidate, opts NaryOptions, counter *valfile.ReadCounter) (*Result, error) {
	if err := ExportAttributes(db, eligible, ExportConfig{Dataset: opts.Scratch}); err != nil {
		return nil, err
	}
	return SpiderMerge(cands, SpiderMergeOptions{Counter: counter, Store: opts.Store})
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
	sortCands(out)
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
// list, keyed by listIdent so that no two lists share an entry. Tuples
// containing NULL are ignored, the standard convention for n-ary INDs.
type tupleVerifier struct {
	db    *relstore.Database
	stats *NaryStats
	cache map[relstore.ColumnRef]map[string]struct{}
}

func newTupleVerifier(db *relstore.Database, stats *NaryStats) *tupleVerifier {
	return &tupleVerifier{db: db, stats: stats, cache: make(map[relstore.ColumnRef]map[string]struct{})}
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
	key := listIdent(table, cols)
	if s, ok := v.cache[key]; ok {
		return s, nil
	}
	tab, idx, err := resolveList(v.db, table, cols)
	if err != nil {
		return nil, err
	}
	// Tuples are keyed by the same injective encoding the merge engine
	// streams (see encodeTuple): a naive value+separator concatenation
	// would conflate distinct tuples whose components contain the
	// separator byte, e.g. ("x\x00", "y") and ("x", "\x00y").
	set := make(map[string]struct{})
	var (
		b   []byte
		ok  bool
		row = make([]value.Value, len(tab.Columns))
	)
	for r := 0; r < tab.RowCount(); r++ {
		for _, c := range idx {
			row[c] = tab.Value(r, c)
		}
		if b, ok = encodeTuple(b[:0], row, idx); ok {
			set[string(b)] = struct{}{}
		}
	}
	v.cache[key] = set
	return set, nil
}
