package ind

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spider/internal/store"
	"spider/internal/valfile"
)

// BruteForceParallel runs Algorithm 1 over candidates on multiple
// goroutines. The paper's implementations are single-threaded (Java 1.5
// on a 2-CPU box); candidate tests are embarrassingly parallel — each
// opens its own two files — so a worker pool is the natural modern
// extension. Results are identical to BruteForce; only wall clock and
// peak open files (2 × workers) change.
type ParallelOptions struct {
	// Workers is the pool size (default GOMAXPROCS).
	Workers int
	// Counter receives every item read; nil disables external counting.
	Counter *valfile.ReadCounter
	// Store serves the attributes' value sets; nil reads the value files
	// ExportAttributes wrote, by path. It must be safe for concurrent
	// opens (all backends are).
	Store store.Dataset
}

// BruteForceParallel verifies all candidates concurrently.
func BruteForceParallel(cands []Candidate, opts ParallelOptions) (*Result, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	src := newSource(opts.Store, opts.Counter)

	var (
		wg          sync.WaitGroup
		next        atomic.Int64
		comparisons atomic.Int64
		filesOpened atomic.Int64
		failed      atomic.Bool
		errMu       sync.Mutex
		firstErr    error
		verdicts    = make([]bool, len(cands))
	)
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st Stats
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cands) {
					break
				}
				if failed.Load() {
					return
				}
				sat, err := testCandidate(cands[i], src, &st)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					failed.Store(true)
					return
				}
				verdicts[i] = sat
			}
			comparisons.Add(st.Comparisons)
			filesOpened.Add(int64(st.FilesOpened))
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	res := &Result{}
	for i, c := range cands {
		if verdicts[i] {
			res.Satisfied = append(res.Satisfied, IND{Dep: c.Dep.Ref, Ref: c.Ref.Ref})
		}
	}
	res.Stats.Candidates = len(cands)
	res.Stats.Satisfied = len(res.Satisfied)
	res.Stats.Comparisons = comparisons.Load()
	res.Stats.FilesOpened = int(filesOpened.Load())
	res.Stats.MaxOpenFiles = 2 * opts.Workers
	res.Stats.ItemsRead = totalRead(opts.Counter)
	res.Stats.BytesRead = totalBytes(opts.Counter)
	res.Stats.Duration = time.Since(start)
	sortINDs(res.Satisfied)
	return res, nil
}
