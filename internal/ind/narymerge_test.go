package ind

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"spider/internal/extsort"
	"spider/internal/relstore"
	"spider/internal/store"
	"spider/internal/valfile"
	"spider/internal/value"
)

// waitGoroutines polls until the goroutine count drops back to the
// baseline (the runtime needs a moment to retire exiting goroutines).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}

// leftovers lists the files under dir that a finished n-ary search must
// not leave behind: per-level tuple sets.
func leftovers(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		base := filepath.Base(path)
		if strings.HasPrefix(base, "nary_l") {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// truncationFixtureDB plants a parent table and an exact row-copy child:
// every k-ary projection of the child is included in the parent, so
// level 2 survives broadly and level 3's candidate count is
// combinatorial — guaranteed to blow any small per-level cap. Column
// value pools are disjoint, so only position-aligned columns match.
func truncationFixtureDB() *relstore.Database {
	db := relstore.NewDatabase("truncfix")
	const nCols, nRows = 7, 12
	mk := func(prefix string) []relstore.Column {
		cols := make([]relstore.Column, nCols)
		for i := range cols {
			cols[i] = relstore.Column{Name: fmt.Sprintf("%s%d", prefix, i), Kind: value.String}
		}
		return cols
	}
	parent := db.MustCreateTable("parent", mk("c"))
	child := db.MustCreateTable("child", mk("d"))
	for r := 0; r < nRows; r++ {
		row := make([]value.Value, nCols)
		for c := range row {
			row[c] = value.NewString(fmt.Sprintf("p%d_%d", c, r%4))
		}
		parent.MustInsert(row...)
		child.MustInsert(row...)
	}
	return db
}

// TestNaryMergeTruncationLeaksNothing drives the merge engine into a
// level-cap truncation after a level whose tuple sets were staged into
// the work directory. Once the call returns, no goroutine may still run
// and no nary_l* tuple set may be left, and the
// truncated result must equal the tuple-set reference engine's.
func TestNaryMergeTruncationLeaksNothing(t *testing.T) {
	db := truncationFixtureDB()
	baseline := runtime.NumGoroutine()
	dir := t.TempDir()

	opts := NaryOptions{
		Algorithm: NaryMerge,
		MaxArity:  4,
		// The 42 two-ary candidates pass (C(7,2) per direction), the 70
		// three-ary ones do not.
		MaxCandidatesPerLevel: 50,
		WorkDir:               dir,
	}
	res, err := DiscoverNary(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.StoppedAtArity != 3 {
		t.Fatalf("fixture stopped at arity %d (truncated %v), want a level-3 truncation", res.StoppedAtArity, res.Truncated)
	}
	if res.Stats.SatisfiedByArity[2] == 0 {
		t.Fatal("no level-2 survivors: no tuple extraction ran, test is vacuous")
	}

	waitGoroutines(t, baseline)
	if left := leftovers(t, dir); len(left) > 0 {
		t.Errorf("truncated search left %d tuple sets: %v", len(left), left)
	}

	want, err := DiscoverNary(db, NaryOptions{MaxArity: opts.MaxArity, MaxCandidatesPerLevel: opts.MaxCandidatesPerLevel})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Satisfied, want.Satisfied) || res.StoppedAtArity != want.StoppedAtArity {
		t.Errorf("truncated merge result differs from the tuple-set reference:\n%v (stopped at %d)\nvs\n%v (stopped at %d)",
			res.Satisfied, res.StoppedAtArity, want.Satisfied, want.StoppedAtArity)
	}
}

// TestNaryMergeLeaksNothing is the complementary run: the search
// completes normally, and afterwards no goroutine and no nary_l* tuple
// set may remain either.
func TestNaryMergeLeaksNothing(t *testing.T) {
	db := randomNaryDB(1)
	baseline := runtime.NumGoroutine()
	dir := t.TempDir()

	res, err := DiscoverNary(db, NaryOptions{Algorithm: NaryMerge, MaxArity: 3, WorkDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("fixture unexpectedly truncated")
	}

	waitGoroutines(t, baseline)
	if left := leftovers(t, dir); len(left) > 0 {
		t.Errorf("completed search left %d tuple sets: %v", len(left), left)
	}
}

// createCounter is a dataset that counts the value sets staged into it,
// per key prefix.
type createCounter struct {
	store.Dataset
	mu      sync.Mutex
	creates map[string]int
}

func (c *createCounter) Create(key string) (store.ValueWriter, error) {
	c.mu.Lock()
	c.creates[key[:min(len(key), len("nary_l00"))]]++
	c.mu.Unlock()
	return c.Dataset.Create(key)
}

// TestNaryMergeStagesEachListOncePerLevel plants one dependent column
// list, (dep.a, dep.b), that is a level-2 candidate against two
// referenced tables. The level has three distinct column lists, and each
// must be extracted and staged exactly once, however many candidates
// share it.
func TestNaryMergeStagesEachListOncePerLevel(t *testing.T) {
	db := relstore.NewDatabase("sharedlist")
	cols := []relstore.Column{{Name: "a", Kind: value.String}, {Name: "b", Kind: value.String}}
	dep := db.MustCreateTable("dep", cols)
	ref1 := db.MustCreateTable("ref1", cols)
	ref2 := db.MustCreateTable("ref2", cols)
	for i := 0; i < 4; i++ {
		row := []value.Value{value.NewString(fmt.Sprintf("a%d", i)), value.NewString(fmt.Sprintf("b%d", i))}
		dep.MustInsert(row...)
		ref1.MustInsert(row...)
		ref2.MustInsert(row...)
	}
	// Extra values make each referenced table's columns strictly larger
	// than dep's and unrelated to the other referenced table's.
	ref1.MustInsert(value.NewString("a-ref1"), value.NewString("b-ref1"))
	ref2.MustInsert(value.NewString("a-ref2"), value.NewString("b-ref2"))

	ds := &createCounter{Dataset: store.NewMem(), creates: make(map[string]int)}
	res, err := DiscoverNary(db, NaryOptions{Algorithm: NaryMerge, MaxArity: 2, Store: ds, Scratch: ds})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Satisfied); got != 2 || res.Stats.CandidatesByArity[2] != 2 {
		t.Fatalf("level 2: %d candidates, %d satisfied (%v), want 2 and 2",
			res.Stats.CandidatesByArity[2], got, res.Satisfied)
	}
	if got := ds.creates["nary_l02"]; got != 3 {
		t.Errorf("level 2 staged %d tuple sets, want 3: one per distinct column list", got)
	}
}

// runMetaRecorder serves a dataset to the merge and records, as each
// level's tuple sets are opened, their run metadata.
type runMetaRecorder struct {
	store.Dataset
	mu    sync.Mutex
	metas map[string]valfile.RunMeta
}

func (r *runMetaRecorder) Open(key string, counter *valfile.ReadCounter) (store.Cursor, error) {
	if strings.HasPrefix(key, "nary_l") {
		data, ok, err := r.Dataset.Section(key, valfile.RunMetaSection)
		if err != nil || !ok {
			return nil, fmt.Errorf("%s: run metadata section: ok=%v err=%v", key, ok, err)
		}
		meta, err := valfile.DecodeRunMeta(data)
		if err != nil {
			return nil, err
		}
		r.mu.Lock()
		r.metas[key] = meta
		r.mu.Unlock()
	}
	return r.Dataset.Open(key, counter)
}

// TestNaryLevelStagesPresorted: every level's tuple sets are sorted in
// memory and staged presorted, like a column export: every tuple set
// staged into fs-block or memory carries run metadata with Added equal
// to its NULL-free tuple count (every row: the fixture has no NULLs)
// and no spill runs.
func TestNaryLevelStagesPresorted(t *testing.T) {
	db := truncationFixtureDB()
	rows := db.Table("parent").RowCount()
	for name, ds := range stagingBackends(t) {
		rec := &runMetaRecorder{Dataset: ds, metas: make(map[string]valfile.RunMeta)}
		// Staging goes through the recorder too, so that the merge opens
		// the sets through it, not by path.
		opts := NaryOptions{Algorithm: NaryMerge, MaxArity: 3, Store: rec, Scratch: rec}
		opts.Sort = extsort.Config{Format: valfile.FormatBlock}
		res, err := DiscoverNary(db, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.SatisfiedByArity[3] == 0 {
			t.Fatalf("%s: no level-3 survivors: level 3 staged nothing worth checking", name)
		}
		levels := map[string]int{}
		for key, meta := range rec.metas {
			levels[key[:len("nary_l00")]]++
			if meta != (valfile.RunMeta{Added: int64(rows)}) {
				t.Errorf("%s: %s: run metadata %+v, want Added=%d and no spill runs", name, key, meta, rows)
			}
		}
		if levels["nary_l02"] == 0 || levels["nary_l03"] == 0 {
			t.Errorf("%s: tuple sets opened per level %v, want levels 2 and 3", name, levels)
		}
	}
}
