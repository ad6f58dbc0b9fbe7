package ind

import (
	"sort"
	"time"

	"spider/internal/store"
	"spider/internal/valfile"
)

// Stats summarises the work an IND discovery run performed. ItemsRead is
// the paper's Figure 5 metric ("number of items read").
type Stats struct {
	Candidates int
	Satisfied  int
	ItemsRead  int64
	// BytesRead is the raw bytes pulled from value files (both formats
	// count; block files include headers, index and checksums), filled by
	// the file-backed engines from the same counter as ItemsRead. It is
	// the metric that compares the text and block encodings' I/O for
	// identical delivered items.
	BytesRead    int64
	Comparisons  int64
	FilesOpened  int
	MaxOpenFiles int
	// Events counts monitor deliveries (single pass only); it quantifies
	// the synchronisation overhead discussed in Sec 3.3.
	Events int64
	// Inferred counts candidates decided by transitivity, without a test.
	InferredSatisfied int
	InferredRefuted   int
	// CandidatesPruned counts pairs removed by the sketch pre-filter
	// before the engine ran; SketchBytes is the total size of the
	// sketches consulted. Both are zero when the pre-filter is off.
	// They are filled by the callers that run SketchPretest (the
	// spider package), not by the engines themselves.
	CandidatesPruned int
	SketchBytes      int64
	// Sharded-merge observability. ShardPlanner names the boundary
	// planning strategy that produced the shard ranges ("kmv" when every
	// attribute carries a KMV sample, else "minmax"); ShardPlanFallback
	// records why the plan degraded (samples support fewer shards,
	// boundary sample collapsed to one shard) instead of hiding the
	// collapse.
	// ShardItemsRead and ShardDurations hold per-shard items-read counts
	// and wall times, indexed by shard, so skew is measurable; all are
	// empty on unsharded runs.
	ShardPlanner      string
	ShardPlanFallback string
	ShardItemsRead    []int64
	ShardDurations    []time.Duration
	Duration          time.Duration
}

// Result is the outcome of an IND discovery run.
type Result struct {
	Satisfied []IND
	Stats     Stats
}

// sortINDs orders results deterministically for comparison and display.
func sortINDs(inds []IND) {
	sort.Slice(inds, func(i, j int) bool {
		if inds[i].Dep != inds[j].Dep {
			return inds[i].Dep.String() < inds[j].Dep.String()
		}
		return inds[i].Ref.String() < inds[j].Ref.String()
	})
}

// BruteForceOptions tunes the brute-force run.
type BruteForceOptions struct {
	// Counter receives every item read; nil disables external counting.
	Counter *valfile.ReadCounter
	// Transitivity enables the Bell & Brockhausen inference of Sec 4.1,
	// skipping tests whose outcome follows from already decided ones.
	Transitivity bool
	// Store serves the attributes' value sets; nil reads the value files
	// ExportAttributes wrote, by path.
	Store store.Dataset
}

// BruteForce tests every candidate sequentially by opening and merging the
// two sorted value files (Sec 3.1): "it tests one IND candidate at a time
// and therefore has to read value sets multiple times."
func BruteForce(cands []Candidate, opts BruteForceOptions) (*Result, error) {
	start := time.Now()
	res := &Result{}
	res.Stats.Candidates = len(cands)
	res.Stats.MaxOpenFiles = 2 // one dependent plus one referenced file
	src := newSource(opts.Store, opts.Counter)
	var filter *TransitivityFilter
	if opts.Transitivity {
		filter = NewTransitivityFilter()
	}
	for _, c := range cands {
		var sat bool
		if filter != nil {
			if inferred, decided := filter.Decide(c); decided {
				sat = inferred
				// Record the inferred outcome too: without it, multi-hop
				// chains (A⊆B⊆C⊆D) stop propagating after one inference
				// because A⊆C never becomes a premise for A⊆D.
				filter.Record(c, sat)
				if sat {
					res.Satisfied = append(res.Satisfied, IND{Dep: c.Dep.Ref, Ref: c.Ref.Ref})
				}
				continue
			}
		}
		sat, err := testCandidate(c, src, &res.Stats)
		if err != nil {
			return nil, err
		}
		if filter != nil {
			filter.Record(c, sat)
		}
		if sat {
			res.Satisfied = append(res.Satisfied, IND{Dep: c.Dep.Ref, Ref: c.Ref.Ref})
		}
	}
	if filter != nil {
		res.Stats.InferredSatisfied = filter.InferredSatisfied
		res.Stats.InferredRefuted = filter.InferredRefuted
	}
	res.Stats.Satisfied = len(res.Satisfied)
	res.Stats.ItemsRead = totalRead(opts.Counter)
	res.Stats.BytesRead = totalBytes(opts.Counter)
	res.Stats.Duration = time.Since(start)
	sortINDs(res.Satisfied)
	return res, nil
}

// testCandidate is Algorithm 1: iterate both sorted sets from the smallest
// item; for each dependent item, advance the referenced cursor while it is
// behind; stop with false the moment the referenced cursor passes a
// dependent value (early stop), or with true when all dependent values
// found a match.
func testCandidate(c Candidate, src source, st *Stats) (bool, error) {
	dep, err := src.Open(c.Dep)
	if err != nil {
		return false, err
	}
	defer dep.Close()
	ref, err := src.Open(c.Ref)
	if err != nil {
		return false, err
	}
	defer ref.Close()
	st.FilesOpened += 2

	sat, err := algorithmOne(dep, ref, st)
	if err != nil {
		return false, err
	}
	if err := dep.Err(); err != nil {
		return false, err
	}
	if err := ref.Err(); err != nil {
		return false, err
	}
	return sat, nil
}

// algorithmOne is a direct port of the paper's Algorithm 1 over two value
// streams.
func algorithmOne(depValues, refValues Cursor, st *Stats) (bool, error) {
	curRef, refOK := "", false
	for {
		curDep, ok := depValues.Next()
		if !ok {
			if err := depValues.Err(); err != nil {
				return false, err
			}
			return true, nil // all dependent values positively tested
		}
		for {
			// Advance the referenced cursor when it is behind (or at
			// start); otherwise compare in place.
			if !refOK {
				curRef, refOK = refValues.Next()
				if !refOK {
					if err := refValues.Err(); err != nil {
						return false, err
					}
					return false, nil // referenced set exhausted
				}
			}
			st.Comparisons++
			switch {
			case curDep == curRef:
				refOK = false // both cursors advance
			case curDep < curRef:
				return false, nil // currentDep ∉ refValues: early stop
			default:
				refOK = false // step to next referenced item
				continue
			}
			break
		}
	}
}
