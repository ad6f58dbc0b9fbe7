package discovery

import (
	"testing"

	"spider/internal/datagen"
	"spider/internal/ind"
	"spider/internal/relstore"
	"spider/internal/store"
	"spider/internal/value"
)

func discoverINDs(t *testing.T, db *relstore.Database) []ind.IND {
	t.Helper()
	mem := store.NewMem()
	attrs, err := ind.Prepare(db, ind.ExportConfig{Dataset: mem})
	if err != nil {
		t.Fatal(err)
	}
	cands, _ := ind.GenerateCandidates(attrs, ind.GenOptions{})
	res, err := ind.BruteForce(cands, ind.BruteForceOptions{Store: mem})
	if err != nil {
		t.Fatal(err)
	}
	return res.Satisfied
}

// The Sec 5 BioSQL result: all declared FKs found except those on empty
// tables, extra INDs only in the transitive closure, zero false positives.
func TestFKEvaluationOnUniProt(t *testing.T) {
	db := datagen.UniProt(datagen.UniProtConfig{Seed: 42, Scale: 0.05})
	inds := discoverINDs(t, db)
	eval := EvaluateForeignKeys(db, inds)

	if eval.UnfindableEmpty != 2 {
		t.Errorf("UnfindableEmpty = %d, want 2 (sg_comment, sg_term_synonym)", eval.UnfindableEmpty)
	}
	if len(eval.MissedFKs) != 0 {
		t.Errorf("missed FKs: %v", eval.MissedFKs)
	}
	if eval.Recall() != 1.0 {
		t.Errorf("recall = %v, want 1.0", eval.Recall())
	}
	if len(eval.FalsePositives) != 0 {
		t.Errorf("false positives: %v", eval.FalsePositives)
	}
	if eval.TransitiveINDs == 0 {
		t.Error("expected transitive-closure INDs (paper found 11)")
	}
}

func TestFKEvaluationDetectsMisses(t *testing.T) {
	db := datagen.UniProt(datagen.UniProtConfig{Seed: 42, Scale: 0.05})
	eval := EvaluateForeignKeys(db, nil) // no INDs discovered at all
	if eval.FoundFKs != 0 || len(eval.MissedFKs) == 0 {
		t.Errorf("eval = %+v", eval)
	}
	if eval.Recall() != 0 {
		t.Errorf("recall = %v, want 0", eval.Recall())
	}
}

func TestFKEvaluationFalsePositive(t *testing.T) {
	db := relstore.NewDatabase("fp")
	a := db.MustCreateTable("a", []relstore.Column{{Name: "x", Kind: value.Int}})
	b := db.MustCreateTable("b", []relstore.Column{{Name: "y", Kind: value.Int}})
	a.MustInsert(value.NewInt(1))
	b.MustInsert(value.NewInt(1))
	fp := ind.IND{Dep: relstore.ColumnRef{Table: "a", Column: "x"}, Ref: relstore.ColumnRef{Table: "b", Column: "y"}}
	eval := EvaluateForeignKeys(db, []ind.IND{fp})
	if len(eval.FalsePositives) != 1 {
		t.Errorf("false positives = %v", eval.FalsePositives)
	}
}

func TestRecallEmptyGoldStandard(t *testing.T) {
	db := relstore.NewDatabase("none")
	if got := EvaluateForeignKeys(db, nil).Recall(); got != 1 {
		t.Errorf("recall with no declared FKs = %v, want 1", got)
	}
}

// The Sec 5 BioSQL accession result: exactly sg_bioentry.accession,
// sg_reference.crc and sg_ontology.name.
func TestAccessionCandidatesUniProt(t *testing.T) {
	db := datagen.UniProt(datagen.UniProtConfig{Seed: 42, Scale: 0.05})
	cands, err := AccessionCandidates(db, AccessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, c := range cands {
		got[c.Ref.String()] = true
	}
	want := []string{"sg_bioentry.accession", "sg_ontology.name", "sg_reference.crc"}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing accession candidate %s; got %v", w, cands)
		}
	}
	if len(cands) != len(want) {
		t.Errorf("candidates = %d (%v), want exactly %d (paper Sec 5)", len(cands), cands, len(want))
	}
}

func TestValueLooksLikeAccession(t *testing.T) {
	cases := map[string]bool{
		"P12345":  true,
		"abc":     false, // too short
		"1234":    false, // no letter
		"144f":    true,
		"ab12":    true,
		"":        false,
		"ABCDEFG": true,
	}
	for s, want := range cases {
		if got := valueLooksLikeAccession(s); got != want {
			t.Errorf("valueLooksLikeAccession(%q) = %v, want %v", s, got, want)
		}
	}
}

func TestAccessionSoftening(t *testing.T) {
	db := relstore.NewDatabase("soft")
	tab := db.MustCreateTable("t", []relstore.Column{{Name: "code", Kind: value.String}})
	for i := 0; i < 9999; i++ {
		tab.MustInsert(value.NewString("CODE" + string(rune('a'+i%26))))
	}
	tab.MustInsert(value.NewString("na")) // one violator in 10000
	strict, err := AccessionCandidates(db, AccessionOptions{MinFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(strict) != 0 {
		t.Errorf("strict rule must reject the column, got %v", strict)
	}
	soft, err := AccessionCandidates(db, AccessionOptions{MinFraction: 0.9998})
	if err != nil {
		t.Fatal(err)
	}
	if len(soft) != 1 {
		t.Errorf("softened rule must accept the column, got %v", soft)
	}
}

func TestAccessionLengthSpread(t *testing.T) {
	db := relstore.NewDatabase("len")
	tab := db.MustCreateTable("t", []relstore.Column{
		{Name: "tight", Kind: value.String},
		{Name: "loose", Kind: value.String},
	})
	// tight: 8 vs 10 chars (20% of 10 → allowed); loose: 6 vs 18 chars.
	for i := 0; i < 50; i++ {
		tight := "ABCDEFGH"
		loose := "ABCdef"
		if i%2 == 0 {
			tight = "ABCDEFGHIJ"
			loose = "ABCdefGHIjklMNOpqr"
		}
		tab.MustInsert(value.NewString(tight), value.NewString(loose))
	}
	cands, err := AccessionCandidates(db, AccessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].Ref.Column != "tight" {
		t.Errorf("candidates = %v, want only t.tight", cands)
	}
}

// The Sec 5 primary-relation result on BioSQL: heuristic 2 unambiguously
// identifies sg_bioentry.
func TestPrimaryRelationUniProt(t *testing.T) {
	db := datagen.UniProt(datagen.UniProtConfig{Seed: 42, Scale: 0.05})
	inds := discoverINDs(t, db)
	accs, err := AccessionCandidates(db, AccessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ranking := PrimaryRelation(db, inds, accs)
	if len(ranking) != 3 {
		t.Fatalf("ranking = %v, want 3 tables", ranking)
	}
	if ranking[0].Table != "sg_bioentry" {
		t.Errorf("primary relation = %s, want sg_bioentry; ranking %v", ranking[0].Table, ranking)
	}
	if ranking[0].ReferencingINDs <= ranking[1].ReferencingINDs {
		t.Error("sg_bioentry must win unambiguously")
	}
}

// On the PDB-shaped dataset, struct must rank first among tables holding
// accession candidates (Sec 5: finalists exptl, struct, struct_keywords;
// struct is correct).
func TestPrimaryRelationPDB(t *testing.T) {
	db := datagen.PDB(datagen.PDBConfig{Seed: 42, Scale: 0.05, Tables: 14})
	inds := discoverINDs(t, db)
	accs, err := AccessionCandidates(db, AccessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ranking := PrimaryRelation(db, inds, accs)
	if len(ranking) < 3 {
		t.Fatalf("ranking too short: %v", ranking)
	}
	if ranking[0].Table != "struct" {
		t.Errorf("primary relation = %s, want struct; ranking %v", ranking[0].Table, ranking)
	}
	finalists := map[string]bool{}
	for _, c := range ranking[:3] {
		finalists[c.Table] = true
	}
	for _, want := range []string{"struct", "exptl", "struct_keywords"} {
		if !finalists[want] {
			t.Errorf("finalists missing %s: %v", want, ranking[:3])
		}
	}
}

// The Sec 5 OpenMMS accession counts: 9 strict candidates, 19 softened.
// The paper softens to 99.98% on million-row tables; our tables are ~100×
// smaller, so the equivalent softening is 99%.
func TestPDBAccessionSoftening(t *testing.T) {
	db := datagen.PDB(datagen.PDBConfig{Seed: 42, Scale: 0.3})
	strict, err := AccessionCandidates(db, AccessionOptions{MinFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	soft, err := AccessionCandidates(db, AccessionOptions{MinFraction: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if len(strict) != 9 {
		t.Errorf("strict candidates = %d (%v), want 9 (paper Sec 5)", len(strict), strict)
	}
	if len(soft) != 19 {
		t.Errorf("softened candidates = %d (%v), want 19 (paper Sec 5)", len(soft), soft)
	}
}
