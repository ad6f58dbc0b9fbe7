package spider

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func demoDatabase(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase("demo")
	if err := db.AddTable("parent", []string{"id", "code"}, [][]string{
		{"1", "AA"}, {"2", "BB"}, {"3", "CC"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable("child", []string{"cid", "pid"}, [][]string{
		{"100", "1"}, {"101", "1"}, {"102", "3"},
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestAddTableValidation(t *testing.T) {
	db := NewDatabase("v")
	if err := db.AddTable("t", []string{"a", "b"}, [][]string{{"1"}}); err == nil {
		t.Error("ragged row must fail")
	}
	if err := db.AddTable("t", []string{"a"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable("t", []string{"a"}, nil); err == nil {
		t.Error("duplicate table must fail")
	}
}

// TestAddTableMatchesLoadCSVDir: AddTable and LoadCSVDir type the same
// records through one ingest path, so both give identical kinds, rows
// and column statistics.
func TestAddTableMatchesLoadCSVDir(t *testing.T) {
	tables := map[string][][]string{
		"mixed": {
			{"id", "ratio", "flag", "code", "none", "special"},
			{"1", "2", "TRUE", "P12345", "", "inf"},
			{"2", "2.5", "false", "7", "", "-infinity"},
			{"3", "", "False", "1_000", "", "0x1p-2"},
			{"-4", "1e3", "", "ſ", "", "nan"},
		},
		"small": {{"k"}, {"10"}, {"20"}},
	}
	dir := t.TempDir()
	added := NewDatabase("recs")
	for _, name := range []string{"mixed", "small"} {
		recs := tables[name]
		if err := added.AddTable(name, recs[0], recs[1:]); err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(filepath.Join(dir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		w := csv.NewWriter(f)
		if err := w.WriteAll(recs); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := LoadCSVDir("csv", dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mixed", "small"} {
		a, l := added.rel.Table(name), loaded.rel.Table(name)
		if !reflect.DeepEqual(a.Columns, l.Columns) {
			t.Errorf("%s: AddTable columns %v, LoadCSVDir columns %v", name, a.Columns, l.Columns)
		}
		if a.RowCount() != l.RowCount() {
			t.Fatalf("%s: AddTable %d rows, LoadCSVDir %d", name, a.RowCount(), l.RowCount())
		}
		// Values are compared by kind and rendering: NaN != NaN.
		for i := 0; i < a.RowCount(); i++ {
			for j, av := range a.Row(i) {
				if lv := l.Row(i)[j]; av.Kind() != lv.Kind() || av.String() != lv.String() {
					t.Errorf("%s row %d col %d: AddTable %v (%v), LoadCSVDir %v (%v)", name, i, j, av, av.Kind(), lv, lv.Kind())
				}
			}
		}
	}
	for _, ref := range added.rel.Columns() {
		as, err := added.rel.ColumnStats(ref)
		if err != nil {
			t.Fatal(err)
		}
		ls, err := loaded.rel.ColumnStats(ref)
		if err != nil {
			t.Fatal(err)
		}
		if as != ls {
			t.Errorf("%s: AddTable stats %+v, LoadCSVDir stats %+v", ref, as, ls)
		}
	}
}

func TestDatabaseIntrospection(t *testing.T) {
	db := demoDatabase(t)
	if got := db.Tables(); !reflect.DeepEqual(got, []string{"parent", "child"}) {
		t.Errorf("Tables = %v", got)
	}
	if got := len(db.Columns()); got != 4 {
		t.Errorf("Columns = %d", got)
	}
	if db.RowCount("parent") != 3 || db.RowCount("missing") != -1 {
		t.Error("RowCount wrong")
	}
}

func TestFindINDsAllAlgorithms(t *testing.T) {
	want := []IND{{Dep: ColumnRef{"child", "pid"}, Ref: ColumnRef{"parent", "id"}}}
	algos := []Algorithm{
		BruteForce, SinglePass, SinglePassBlocked,
		SQLJoin, SQLMinus, SQLNotIn,
		InMemory, DeMarchiBaseline, BellBrockhausenBaseline,
		BruteForceParallel, SpiderMerge,
	}
	for _, algo := range algos {
		t.Run(algo.String(), func(t *testing.T) {
			db := demoDatabase(t)
			res, err := FindINDs(db, Options{Algorithm: algo, DepBlock: 1, RefBlock: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.INDs, want) {
				t.Errorf("INDs = %v, want %v", res.INDs, want)
			}
			if res.Stats.Satisfied != 1 {
				t.Errorf("stats = %+v", res.Stats)
			}
		})
	}
}

func TestFindINDsUnknownAlgorithm(t *testing.T) {
	if _, err := FindINDs(demoDatabase(t), Options{Algorithm: Algorithm(99)}); err == nil {
		t.Error("unknown algorithm must fail")
	}
}

func TestAlgorithmNames(t *testing.T) {
	names := map[Algorithm]string{
		BruteForce:              "brute-force",
		SinglePass:              "single-pass",
		SinglePassBlocked:       "single-pass-blocked",
		SQLJoin:                 "sql-join",
		SQLMinus:                "sql-minus",
		SQLNotIn:                "sql-not-in",
		InMemory:                "in-memory",
		DeMarchiBaseline:        "demarchi",
		BellBrockhausenBaseline: "bell-brockhausen",
		BruteForceParallel:      "brute-force-parallel",
		SpiderMerge:             "spider-merge",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
}

// TestSpiderMergeStreaming runs the fully streaming pipeline — the spill
// backend: no value files are materialized, yet the results match the
// file-backed run, and no spill run outlives the call. Frozen runs are
// replayable, so a re-reading engine streams just as well.
func TestSpiderMergeStreaming(t *testing.T) {
	want, err := FindINDs(demoDatabase(t), Options{Algorithm: SpiderMerge})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{SpiderMerge, BruteForce} {
		dir := t.TempDir()
		got, err := FindINDs(demoDatabase(t), Options{Algorithm: algo, Store: NewSpillStore(), WorkDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.INDs, want.INDs) {
			t.Errorf("%v over spill: INDs = %v, want %v", algo, got.INDs, want.INDs)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Errorf("%v over spill left %d files in the work dir", algo, len(entries))
		}
	}
}

// TestSpiderMergeMatchesInMemoryOnDatasets is the acceptance check: the
// heap-merge engine returns IND sets identical to the in-memory reference
// on all three paper-shaped datasets.
func TestSpiderMergeMatchesInMemoryOnDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	dbs := map[string]*Database{
		"uniprot": GenerateUniProt(DatasetConfig{Scale: 0.05}),
		"scop":    GenerateSCOP(DatasetConfig{Scale: 0.05}),
		"pdb":     GeneratePDB(DatasetConfig{Scale: 0.02, Tables: 12}),
	}
	for name, db := range dbs {
		t.Run(name, func(t *testing.T) {
			want, err := FindINDs(db, Options{Algorithm: InMemory})
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range []Options{
				{Algorithm: SpiderMerge},
				{Algorithm: SpiderMerge, Store: NewSpillStore()},
			} {
				got, err := FindINDs(db, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.INDs, want.INDs) {
					t.Errorf("%v: INDs = %v, want %v", opts.Store, got.INDs, want.INDs)
				}
				if got.Stats.Candidates != want.Stats.Candidates || got.Stats.Satisfied != want.Stats.Satisfied {
					t.Errorf("%v: stats = %+v, want candidates %d satisfied %d",
						opts.Store, got.Stats, want.Stats.Candidates, want.Stats.Satisfied)
				}
			}
		})
	}
}

func TestFindINDsWorkDirReuse(t *testing.T) {
	dir := t.TempDir()
	db := demoDatabase(t)
	if _, err := FindINDs(db, Options{WorkDir: dir}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Error("WorkDir must retain exported value files")
	}
}

func TestLoadCSVDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "parent.csv"), []byte("id,code\n1,AA\n2,BB\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "child.csv"), []byte("pid\n1\n2\n2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := LoadCSVDir("csvdemo", dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FindINDs(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := IND{Dep: ColumnRef{"child", "pid"}, Ref: ColumnRef{"parent", "id"}}
	found := false
	for _, d := range res.INDs {
		if d == want {
			found = true
		}
	}
	if !found {
		t.Errorf("INDs = %v, want %v among them", res.INDs, want)
	}
}

func TestGenerateDatasets(t *testing.T) {
	uni := GenerateUniProt(DatasetConfig{Scale: 0.05})
	if len(uni.Tables()) != 16 || len(uni.Columns()) != 85 {
		t.Errorf("UniProt shape: %d tables, %d cols", len(uni.Tables()), len(uni.Columns()))
	}
	scop := GenerateSCOP(DatasetConfig{Scale: 0.05})
	if len(scop.Tables()) != 4 || len(scop.Columns()) != 22 {
		t.Errorf("SCOP shape: %d tables, %d cols", len(scop.Tables()), len(scop.Columns()))
	}
	pdb := GeneratePDB(DatasetConfig{Scale: 0.05, Tables: 10})
	if len(pdb.Tables()) != 10 {
		t.Errorf("PDB tables = %d", len(pdb.Tables()))
	}
}

func TestDiscoverSchemaUniProt(t *testing.T) {
	db := GenerateUniProt(DatasetConfig{Scale: 0.05})
	rep, err := DiscoverSchema(db, SchemaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FKEvaluation == nil {
		t.Fatal("FK evaluation missing")
	}
	if rep.FKEvaluation.Recall != 1 {
		t.Errorf("recall = %v", rep.FKEvaluation.Recall)
	}
	if rep.FKEvaluation.UnfindableEmpty != 2 {
		t.Errorf("UnfindableEmpty = %d", rep.FKEvaluation.UnfindableEmpty)
	}
	if len(rep.FKEvaluation.FalsePositives) != 0 {
		t.Errorf("false positives: %v", rep.FKEvaluation.FalsePositives)
	}
	if len(rep.AccessionCandidates) != 3 {
		t.Errorf("accession candidates = %v", rep.AccessionCandidates)
	}
	if len(rep.PrimaryRelations) == 0 || rep.PrimaryRelations[0].Table != "sg_bioentry" {
		t.Errorf("primary relations = %v", rep.PrimaryRelations)
	}
}

func TestDeclareForeignKey(t *testing.T) {
	db := demoDatabase(t)
	dep := ColumnRef{"child", "pid"}
	ref := ColumnRef{"parent", "id"}
	if err := db.DeclareForeignKey(dep, ref); err != nil {
		t.Fatal(err)
	}
	if err := db.DeclareForeignKey(ColumnRef{"nope", "x"}, ref); err == nil {
		t.Error("bad FK must fail")
	}
	rep, err := DiscoverSchema(db, SchemaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FKEvaluation == nil || rep.FKEvaluation.FoundFKs != 1 {
		t.Errorf("FK eval = %+v", rep.FKEvaluation)
	}
}

func TestRunAladinTwoSources(t *testing.T) {
	uni := GenerateUniProt(DatasetConfig{Scale: 0.05})
	anno := NewDatabase("anno")
	rows := make([][]string, 30)
	for i := range rows {
		rows[i] = []string{fmt.Sprintf("X%05d", i), fmt.Sprintf("P%05d", 10000+i)}
	}
	if err := anno.AddTable("xref", []string{"acc", "uniprot_acc"}, rows); err != nil {
		t.Fatal(err)
	}
	rep, err := RunAladin([]AladinSource{
		{Name: "uniprot", DB: uni},
		{Name: "anno", DB: anno},
	}, AladinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sources) != 2 {
		t.Fatalf("sources = %d", len(rep.Sources))
	}
	found := false
	for _, c := range rep.CrossINDs {
		if c.DepSource == "anno" && c.Dep.String() == "xref.uniprot_acc" &&
			c.Ref.String() == "sg_bioentry.accession" {
			found = true
		}
	}
	if !found {
		t.Errorf("cross INDs = %v", rep.CrossINDs)
	}
}

func TestRunAladinNilDB(t *testing.T) {
	if _, err := RunAladin([]AladinSource{{Name: "x"}}, AladinOptions{}); err == nil {
		t.Error("nil DB must fail")
	}
}

func ExampleFindINDs() {
	db := NewDatabase("example")
	_ = db.AddTable("parent", []string{"id"}, [][]string{{"1"}, {"2"}, {"3"}})
	_ = db.AddTable("child", []string{"pid"}, [][]string{{"1"}, {"3"}})
	res, _ := FindINDs(db, Options{})
	for _, d := range res.INDs {
		fmt.Println(d)
	}
	// Output:
	// child.pid ⊆ parent.id
}

// TestSketchPrefilterIdenticalINDs: with the pre-filter at sound
// settings, every engine and extraction path must discover exactly the
// INDs it discovers unfiltered, on a dataset large enough for sketches
// to actually prune.
func TestSketchPrefilterIdenticalINDs(t *testing.T) {
	db := GenerateUniProt(DatasetConfig{Scale: 0.04})
	baseline, err := FindINDs(db, Options{Algorithm: SpiderMerge})
	if err != nil {
		t.Fatal(err)
	}
	cases := []Options{
		{Algorithm: SpiderMerge},
		{Algorithm: SpiderMerge, Store: NewSpillStore()},
		{Algorithm: SpiderMerge, Store: NewSpillStore(), Shards: 3},
		{Algorithm: SpiderMerge, Shards: 2},
		{Algorithm: BruteForce},
		{Algorithm: SinglePass},
		{Algorithm: InMemory},
		{Algorithm: SQLJoin},
	}
	for _, opts := range cases {
		opts.SketchPrefilter = true
		// The stream axis is the spill backend.
		name := fmt.Sprintf("%v/stream=%v/shards=%d", opts.Algorithm, opts.Store.spill(), opts.Shards)
		t.Run(name, func(t *testing.T) {
			res, err := FindINDs(db, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.INDs, baseline.INDs) {
				t.Errorf("INDs differ from unfiltered run: %d vs %d", len(res.INDs), len(baseline.INDs))
			}
			if res.Stats.CandidatesPruned == 0 {
				t.Error("pre-filter pruned nothing")
			}
			if res.Stats.SketchBytes == 0 {
				t.Error("sketch bytes not reported")
			}
			// Tested + pruned must account for the unfiltered candidate set.
			if got := res.Stats.Candidates + res.Stats.CandidatesPruned; got != baseline.Stats.Candidates {
				t.Errorf("candidates %d + pruned %d = %d, want %d (unfiltered)",
					res.Stats.Candidates, res.Stats.CandidatesPruned, got, baseline.Stats.Candidates)
			}
		})
	}
}

// TestSketchMinContainmentValidation: out-of-range cut-offs (which
// would silently prune everything) must be rejected up front.
func TestSketchMinContainmentValidation(t *testing.T) {
	db := demoDatabase(t)
	if _, err := FindINDs(db, Options{SketchPrefilter: true, SketchMinContainment: 1.2}); err == nil {
		t.Error("FindINDs accepted SketchMinContainment > 1")
	}
	if _, err := FindINDs(db, Options{SketchPrefilter: true, SketchMinContainment: -0.1}); err == nil {
		t.Error("FindINDs accepted negative SketchMinContainment")
	}
	if _, _, err := FindPartialINDs(db, PartialOptions{
		Threshold: 0.9, Algorithm: SpiderMerge, SketchPrefilter: true, SketchMinContainment: 1.2,
	}); err == nil {
		t.Error("FindPartialINDs accepted SketchMinContainment > 1")
	}
}

// TestShardsRequireSpiderMerge: every discovery entry point rejects
// Shards > 1 on an engine that cannot shard, instead of silently running
// unsharded.
func TestShardsRequireSpiderMerge(t *testing.T) {
	db := demoDatabase(t)
	for name, run := range map[string]func() error{
		"FindINDs": func() error {
			_, err := FindINDs(db, Options{Algorithm: SinglePass, Shards: 2})
			return err
		},
		"FindPartialINDs": func() error {
			_, _, err := FindPartialINDs(db, PartialOptions{Threshold: 0.9, Algorithm: BruteForce, Shards: 2})
			return err
		},
		"FindNaryINDs": func() error {
			_, _, err := FindNaryINDs(db, NaryOptions{MaxArity: 2, Algorithm: InMemory, Shards: 2})
			return err
		},
		"FindEmbeddedINDsWith": func() error {
			_, _, err := FindEmbeddedINDsWith(db, EmbeddedOptions{Algorithm: BruteForce, Shards: 2})
			return err
		},
	} {
		if err := run(); err == nil {
			t.Errorf("%s accepted Shards > 1 without SpiderMerge", name)
		}
	}
}
