package ind

import (
	"sort"
	"time"

	"spider/internal/store"
	"spider/internal/valfile"
)

// BlockedOptions configures the block-wise single pass, the extension the
// paper proposes in Sec 4.2 to bound the number of simultaneously open
// files: "To scale the single-pass algorithm to such numbers of dependent
// and referenced attributes we must implement a block-wise approach —
// comparing blocks of dependent attributes against (all or blocks of)
// referenced attributes."
type BlockedOptions struct {
	// DepBlock is the maximum number of distinct dependent attributes per
	// block; <= 0 means all in one block.
	DepBlock int
	// RefBlock is the maximum number of distinct referenced attributes
	// per inner block; <= 0 means all at once.
	RefBlock int
	// Counter receives every item read; nil disables external counting.
	Counter *valfile.ReadCounter
	// Store serves the attributes' value sets; it is required. Cursors
	// are reopened once per block.
	Store store.Dataset
}

// SinglePassBlocked partitions the candidates into dependent × referenced
// attribute blocks and runs the single-pass algorithm per block. Open
// files are bounded by DepBlock + RefBlock; referenced files are re-read
// once per dependent block, trading the single-pass I/O optimum for
// scalability — exactly the trade-off Sec 4.2 describes.
func SinglePassBlocked(cands []Candidate, opts BlockedOptions) (*Result, error) {
	start := time.Now()
	if err := requireDataset(opts.Store, "Store"); err != nil {
		return nil, err
	}

	depIDs, refIDs := attributeIDs(cands)
	depBlocks := blockIDs(depIDs, opts.DepBlock)
	refBlocks := blockIDs(refIDs, opts.RefBlock)

	total := &Result{}
	total.Stats.Candidates = len(cands)
	for _, db := range depBlocks {
		for _, rb := range refBlocks {
			var block []Candidate
			for _, c := range cands {
				if db[c.Dep.ID] && rb[c.Ref.ID] {
					block = append(block, c)
				}
			}
			if len(block) == 0 {
				continue
			}
			res, err := SinglePass(block, SinglePassOptions{Counter: opts.Counter, Store: opts.Store})
			if err != nil {
				return nil, err
			}
			total.Satisfied = append(total.Satisfied, res.Satisfied...)
			total.Stats.Comparisons += res.Stats.Comparisons
			total.Stats.Events += res.Stats.Events
			total.Stats.FilesOpened += res.Stats.FilesOpened
			if res.Stats.MaxOpenFiles > total.Stats.MaxOpenFiles {
				total.Stats.MaxOpenFiles = res.Stats.MaxOpenFiles
			}
		}
	}
	total.Stats.Satisfied = len(total.Satisfied)
	total.Stats.ItemsRead = totalRead(opts.Counter)
	total.Stats.BytesRead = totalBytes(opts.Counter)
	total.Stats.Duration = time.Since(start)
	sortINDs(total.Satisfied)
	return total, nil
}

// attributeIDs collects the distinct dependent and referenced attribute
// IDs present in the candidate set, sorted.
func attributeIDs(cands []Candidate) (deps, refs []int) {
	depSet := make(map[int]struct{})
	refSet := make(map[int]struct{})
	for _, c := range cands {
		depSet[c.Dep.ID] = struct{}{}
		refSet[c.Ref.ID] = struct{}{}
	}
	for id := range depSet {
		deps = append(deps, id)
	}
	for id := range refSet {
		refs = append(refs, id)
	}
	sort.Ints(deps)
	sort.Ints(refs)
	return deps, refs
}

// blockIDs splits ids into consecutive blocks of size at most block,
// returned as membership sets.
func blockIDs(ids []int, block int) []map[int]bool {
	if block <= 0 || block >= len(ids) {
		all := make(map[int]bool, len(ids))
		for _, id := range ids {
			all[id] = true
		}
		return []map[int]bool{all}
	}
	var out []map[int]bool
	for i := 0; i < len(ids); i += block {
		end := i + block
		if end > len(ids) {
			end = len(ids)
		}
		m := make(map[int]bool, end-i)
		for _, id := range ids[i:end] {
			m[id] = true
		}
		out = append(out, m)
	}
	return out
}

// Reference computes the satisfied INDs of a candidate set directly from
// in-memory value sets. It is the oracle the test suite checks every
// algorithm against; it is also the fastest option for data that fits in
// memory, so the public API exposes it as AlgorithmInMemory.
//
//lint:indlint-ignore the in-memory oracle reads value sets, not files; ItemsRead is structurally zero
func Reference(cands []Candidate, sets map[int][]string) *Result {
	start := time.Now()
	res := &Result{}
	res.Stats.Candidates = len(cands)
	memo := make(map[int]map[string]struct{})
	setOf := func(id int) map[string]struct{} {
		if s, ok := memo[id]; ok {
			return s
		}
		s := make(map[string]struct{}, len(sets[id]))
		for _, v := range sets[id] {
			s[v] = struct{}{}
		}
		memo[id] = s
		return s
	}
	for _, c := range cands {
		refSet := setOf(c.Ref.ID)
		sat := true
		for _, v := range sets[c.Dep.ID] {
			res.Stats.Comparisons++
			if _, ok := refSet[v]; !ok {
				sat = false
				break
			}
		}
		if sat {
			res.Satisfied = append(res.Satisfied, IND{Dep: c.Dep.Ref, Ref: c.Ref.Ref})
		}
	}
	res.Stats.Satisfied = len(res.Satisfied)
	res.Stats.Duration = time.Since(start)
	sortINDs(res.Satisfied)
	return res
}
