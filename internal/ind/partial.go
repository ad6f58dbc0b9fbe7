package ind

import (
	"fmt"
	"math"
	"sort"
	"time"

	"spider/internal/store"
	"spider/internal/valfile"
)

// The paper's Sec 7 closes with: "Furthermore we plan to extend our
// procedure to identify partial INDs on dirty data." A partial IND
// a ⊆σ b holds when at least a fraction σ of the distinct values of a
// also occur in b; σ = 1 is the exact IND. This file implements that
// extension over the same sorted value files, with an early stop that
// mirrors Algorithm 1's: the scan aborts as soon as the *miss budget*
// (1-σ)·|s(a)| is exhausted.

// PartialOptions tunes BruteForcePartial.
type PartialOptions struct {
	// Threshold is σ: the minimum fraction of distinct dependent values
	// that must occur in the referenced attribute. Values outside (0, 1]
	// are rejected.
	Threshold float64
	// Counter receives every item read; nil disables external counting.
	Counter *valfile.ReadCounter
	// Store serves the attributes' value sets; it is required.
	Store store.Dataset
}

// PartialResult reports every candidate whose coverage reached the
// threshold, with exact coverage for those.
type PartialResult struct {
	Satisfied []PartialMatch
	Stats     Stats
}

// PartialMatch is one satisfied partial IND.
type PartialMatch struct {
	IND
	// Coverage is the fraction of distinct dependent values found in the
	// referenced attribute (1.0 for an exact IND).
	Coverage float64
	// Missing is the number of distinct dependent values without a
	// counterpart.
	Missing int
}

// BruteForcePartial tests every candidate for partial inclusion at the
// given threshold, sequentially over sorted value files.
func BruteForcePartial(cands []Candidate, opts PartialOptions) (*PartialResult, error) {
	if opts.Threshold <= 0 || opts.Threshold > 1 {
		return nil, fmt.Errorf("ind: partial threshold must be in (0, 1], got %v", opts.Threshold)
	}
	start := time.Now()
	res := &PartialResult{}
	res.Stats.Candidates = len(cands)
	res.Stats.MaxOpenFiles = 2
	src, err := newSource(opts.Store, opts.Counter)
	if err != nil {
		return nil, err
	}
	for _, c := range cands {
		if c.Dep.Key == "" || c.Ref.Key == "" {
			return nil, fmt.Errorf("ind: candidate %s has unexported attributes", c)
		}
		matched, missing, err := partialTest(c, src, opts.Threshold, &res.Stats)
		if err != nil {
			return nil, err
		}
		total := matched + missing
		if total == 0 {
			// Empty dependent set: trivially (fully) included.
			res.Satisfied = append(res.Satisfied, PartialMatch{
				IND:      IND{Dep: c.Dep.Ref, Ref: c.Ref.Ref},
				Coverage: 1,
			})
			continue
		}
		coverage := float64(matched) / float64(total)
		if coverage+1e-12 >= opts.Threshold {
			res.Satisfied = append(res.Satisfied, PartialMatch{
				IND:      IND{Dep: c.Dep.Ref, Ref: c.Ref.Ref},
				Coverage: coverage,
				Missing:  missing,
			})
		}
	}
	res.Stats.Satisfied = len(res.Satisfied)
	res.Stats.ItemsRead = opts.Counter.Total()
	res.Stats.BytesRead = opts.Counter.TotalBytes()
	res.Stats.Duration = time.Since(start)
	sort.Slice(res.Satisfied, func(i, j int) bool {
		if res.Satisfied[i].Dep != res.Satisfied[j].Dep {
			return res.Satisfied[i].Dep.String() < res.Satisfied[j].Dep.String()
		}
		return res.Satisfied[i].Ref.String() < res.Satisfied[j].Ref.String()
	})
	return res, nil
}

// partialTest merges the two sorted sets counting matches and misses. It
// aborts early — reporting the full dependent cardinality as missing
// beyond the budget — once the candidate can no longer reach the
// threshold.
func partialTest(c Candidate, src source, threshold float64, st *Stats) (matched, missing int, err error) {
	dep, err := src.Open(c.Dep)
	if err != nil {
		return 0, 0, err
	}
	defer dep.Close()
	ref, err := src.Open(c.Ref)
	if err != nil {
		return 0, 0, err
	}
	defer ref.Close()
	st.FilesOpened += 2

	budget := missBudget(threshold, c.Dep.Distinct)

	curRef, refOK := "", false
	refDone := false
	for {
		curDep, ok := dep.Next()
		if !ok {
			if err := dep.Err(); err != nil {
				return 0, 0, err
			}
			return matched, missing, nil
		}
		if refDone {
			missing++
		} else {
			for {
				if !refOK {
					curRef, refOK = ref.Next()
					if !refOK {
						if err := ref.Err(); err != nil {
							return 0, 0, err
						}
						refDone = true
						missing++
						break
					}
				}
				st.Comparisons++
				if curDep == curRef {
					matched++
					refOK = false
					break
				}
				if curDep < curRef {
					missing++ // curDep has no counterpart; keep curRef
					break
				}
				refOK = false // advance the referenced cursor
			}
		}
		if missing > budget {
			// Early stop: the remaining dependent values cannot lift the
			// coverage back over σ. Account the rest as missing so the
			// reported coverage is a lower bound below the threshold.
			missing += remainingCount(dep)
			if err := dep.Err(); err != nil {
				return 0, 0, err
			}
			return matched, missing, nil
		}
	}
}

// missBudget is the number of misses a dependent set of n distinct values
// can absorb while still reaching threshold σ: one more miss than this
// refutes the candidate. Computed via the required match count so that
// σ·n lands exactly on integers (float64(n)*(1-σ) would round 10.0 down
// to 9 for σ=0.9).
func missBudget(threshold float64, n int) int {
	required := int(math.Ceil(threshold*float64(n) - 1e-9))
	return n - required
}

// remainingCount drains a cursor, returning the number of values left.
func remainingCount(r Cursor) int {
	n := 0
	for {
		if _, ok := r.Next(); !ok {
			return n
		}
		n++
	}
}
