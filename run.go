package spider

import (
	"cmp"
	"fmt"
	"os"

	"spider/internal/ind"
	"spider/internal/relstore"
	"spider/internal/sketch"
	"spider/internal/store"
	"spider/internal/valfile"
)

// run is the state of one discovery call. Each public entry point
// checks its options, opens a run, calls the steps it needs in order
// (collect, extract, candidates), runs its engine over the run's
// datasets, candidates and counter, and converts the answer with
// trailer and the helpers below.
type run struct {
	db          *relstore.Database
	write, read store.Dataset
	tmpDir      string // removed by close
	attrs       []*ind.Attribute
	cands       []ind.Candidate
	counter     valfile.ReadCounter
	sketchStats ind.SketchPretestStats
}

// openRun resolves the call's storage into the dataset extraction
// writes to and the dataset the engines read from; the caller defers
// close. A nil store is the fs backend, rooted at its own directory,
// else at workDir, else at a temporary directory close removes. The
// snapshot backend reads through a fresh read-only view of its memory;
// the spill backend gets a fresh in-memory dataset, so no value set
// outlives the call.
func openRun(db *Database, st *Store, workDir string) (*run, error) {
	r := &run{db: db.rel}
	if st == nil {
		st = NewFSStore("")
	}
	switch st.kind {
	case storeKindMem:
		r.write, r.read = st.mem, st.mem
	case storeKindSnapshot:
		r.write, r.read = st.mem, store.NewSnapshot(st.mem)
	case storeKindSpill:
		mem := store.NewMem()
		r.write, r.read = mem, mem
	default:
		dir := cmp.Or(st.dir, workDir)
		if dir == "" {
			tmp, err := os.MkdirTemp("", "spider-*")
			if err != nil {
				return nil, err
			}
			dir, r.tmpDir = tmp, tmp
		}
		fs := store.NewFS(dir)
		r.write, r.read = fs, fs
	}
	return r, nil
}

func (r *run) close() {
	if r.tmpDir != "" {
		os.RemoveAll(r.tmpDir)
	}
}

// collect builds the attribute catalog.
func (r *run) collect() error {
	attrs, err := ind.CollectAttributes(r.db)
	r.attrs = attrs
	return err
}

// extract stages what the engine and the sketch pre-filter read. With
// export it writes every attribute's sorted distinct value set into the
// run's dataset, the sketches (when asked for) built in the same pass;
// without it, only the sketches are built, from the columns' sorted
// sets. It runs before candidate generation so that the sketches exist
// by the time the pre-filter runs.
func (r *run) extract(export, sketches bool, cfg sketch.Config) error {
	switch {
	case export:
		return ind.ExportAttributes(r.db, r.attrs, ind.ExportConfig{
			Dataset: r.write, Sketches: sketches, SketchConfig: cfg,
		})
	case sketches:
		return ind.BuildAttributeSketches(r.db, r.attrs, cfg)
	}
	return nil
}

// candidates generates the candidate pairs and applies the Sec 4.1
// sampling pretest when sample is positive and the sketch pre-filter
// when pre is non-nil.
func (r *run) candidates(gen ind.GenOptions, sample int, pre *ind.SketchPretestOptions) error {
	r.cands, _ = ind.GenerateCandidates(r.attrs, gen)
	if sample > 0 {
		var err error
		r.cands, _, err = ind.SamplingPretest(r.db, r.cands, ind.SamplingOptions{SampleSize: sample, Seed: 1})
		if err != nil {
			return err
		}
	}
	if pre != nil {
		r.cands, r.sketchStats = ind.SketchPretest(r.cands, *pre)
	}
	return nil
}

// trailer converts the engine's stats and adds the sketch
// pre-filter's work to them.
func (r *run) trailer(st ind.Stats) Stats {
	return Stats{
		Candidates:       st.Candidates,
		Satisfied:        st.Satisfied,
		ItemsRead:        st.ItemsRead,
		BytesRead:        st.BytesRead,
		Comparisons:      st.Comparisons,
		MaxOpenFiles:     st.MaxOpenFiles,
		Events:           st.Events,
		CandidatesPruned: r.sketchStats.Pruned,
		SketchBytes:      r.sketchStats.SketchBytes,
		Duration:         st.Duration,
	}
}

// checkContainment rejects a sketch containment cut-off outside [0, 1]:
// above 1 it would silently prune every candidate (estimates cap at 1).
func checkContainment(v float64) error {
	if v < 0 || v > 1 {
		return fmt.Errorf("spider: SketchMinContainment must be in [0, 1], got %v", v)
	}
	return nil
}

// publicRefs converts internal column references to public ones; an
// empty list stays nil. A single reference converts with ColumnRef(c):
// the two types share one layout.
func publicRefs(cs []relstore.ColumnRef) []ColumnRef {
	var out []ColumnRef
	for _, c := range cs {
		out = append(out, ColumnRef(c))
	}
	return out
}

// publicINDs converts internal INDs, or declared foreign keys (which
// share their layout), to public INDs; an empty list stays nil.
func publicINDs[T ind.IND | relstore.ForeignKey](ds []T) []IND {
	var out []IND
	for _, d := range ds {
		d := ind.IND(d)
		out = append(out, IND{Dep: ColumnRef(d.Dep), Ref: ColumnRef(d.Ref)})
	}
	return out
}

// internalINDs converts public INDs to internal ones.
func internalINDs(ds []IND) []ind.IND {
	out := make([]ind.IND, len(ds))
	for i, d := range ds {
		out[i] = ind.IND{Dep: relstore.ColumnRef(d.Dep), Ref: relstore.ColumnRef(d.Ref)}
	}
	return out
}
