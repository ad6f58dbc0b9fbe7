package aladin

import (
	"fmt"
	"strings"
	"testing"

	"spider/internal/datagen"
	"spider/internal/relstore"
	"spider/internal/value"
)

// secondarySource builds a small annotation database whose xref column
// points into the UniProt accession space (P10000...), giving the pipeline
// an inter-source IND and duplicate objects to find.
func secondarySource(nShared int) *relstore.Database {
	db := relstore.NewDatabase("annodb")
	entry := db.MustCreateTable("entry", []relstore.Column{
		{Name: "acc", Kind: value.String},
		{Name: "label", Kind: value.String},
	})
	for i := 0; i < 60; i++ {
		entry.MustInsert(
			value.NewString(fmt.Sprintf("A%05d", 20000+i)),
			value.NewString(fmt.Sprintf("label %s %d", strings.Repeat("x", i%9), i)),
		)
	}
	xref := db.MustCreateTable("xref", []relstore.Column{
		{Name: "entry_acc", Kind: value.String},
		{Name: "uniprot_acc", Kind: value.String},
		{Name: "note", Kind: value.String},
	})
	for i := 0; i < nShared; i++ {
		xref.MustInsert(
			value.NewString(fmt.Sprintf("A%05d", 20000+i%60)),
			value.NewString(fmt.Sprintf("P%05d", 10000+i)), // ⊆ sg_bioentry.accession
			value.NewString(fmt.Sprintf("note %d", i)),
		)
	}
	return db
}

func TestRunRequiresWorkDir(t *testing.T) {
	if _, err := Run(nil, Config{}); err == nil {
		t.Error("missing WorkDir must fail")
	}
}

func TestRunRejectsNilDB(t *testing.T) {
	if _, err := Run([]Source{{Name: "x"}}, Config{WorkDir: t.TempDir()}); err == nil {
		t.Error("nil database must fail")
	}
}

func TestPipelineSingleSource(t *testing.T) {
	db := datagen.UniProt(datagen.UniProtConfig{Seed: 42, Scale: 0.05})
	rep, err := Run([]Source{{Name: "uniprot", DB: db}}, Config{WorkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sources) != 1 {
		t.Fatalf("sources = %d", len(rep.Sources))
	}
	sr := rep.Sources[0]
	// Step 2: every oid PK must be a key candidate.
	keys := map[string]bool{}
	for _, k := range sr.KeyCandidates {
		keys[k.String()] = true
	}
	for _, want := range []string{"sg_bioentry.oid", "sg_taxon.oid", "sg_term.oid"} {
		if !keys[want] {
			t.Errorf("key candidate %s missing", want)
		}
	}
	// Step 3: FK evaluation clean.
	if sr.FKEvaluation == nil {
		t.Fatal("FK evaluation missing")
	}
	if sr.FKEvaluation.Recall() != 1 || len(sr.FKEvaluation.FalsePositives) != 0 {
		t.Errorf("FK eval = %+v", *sr.FKEvaluation)
	}
	// Primary relation chosen.
	if len(sr.PrimaryRelations) == 0 || sr.PrimaryRelations[0].Table != "sg_bioentry" {
		t.Errorf("primary relations = %v", sr.PrimaryRelations)
	}
	if len(rep.CrossIND) != 0 || rep.DuplicateCount != 0 {
		t.Error("single source must have no cross-source findings")
	}
}

func TestPipelineTwoSources(t *testing.T) {
	uni := datagen.UniProt(datagen.UniProtConfig{Seed: 42, Scale: 0.05})
	anno := secondarySource(25)
	rep, err := Run([]Source{
		{Name: "uniprot", DB: uni},
		{Name: "anno", DB: anno},
	}, Config{WorkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sources) != 2 {
		t.Fatalf("sources = %d", len(rep.Sources))
	}

	// Step 4: anno.xref.uniprot_acc ⊆ uniprot.sg_bioentry.accession must
	// be discovered; the target is inside uniprot's primary relation.
	found := false
	for _, c := range rep.CrossIND {
		if c.DepSource == "anno" && c.Dep.String() == "xref.uniprot_acc" &&
			c.RefSource == "uniprot" && c.Ref.String() == "sg_bioentry.accession" {
			found = true
		}
		if c.RefSource == "uniprot" && c.Ref.Table != "sg_bioentry" {
			t.Errorf("cross IND target outside primary relation: %s", c)
		}
	}
	if !found {
		t.Errorf("expected cross-source IND, got %v", rep.CrossIND)
	}

	// Step 5: the anno primary relation is entry (accession column acc);
	// its values do not overlap uniprot accessions, so duplicates stem
	// only from columns actually shared — here there are none unless the
	// primary accession spaces overlap.
	for _, d := range rep.Duplicates {
		if d.SourceA == d.SourceB {
			t.Errorf("self-pair duplicate: %+v", d)
		}
	}
}

func TestPipelineDuplicates(t *testing.T) {
	// Two copies of overlapping annotation databases: their primary
	// accession spaces overlap, so step 5 must flag duplicates.
	a := secondarySource(10)
	b := secondarySource(10)
	rep, err := Run([]Source{
		{Name: "annoA", DB: a},
		{Name: "annoB", DB: b},
	}, Config{WorkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DuplicateCount == 0 {
		t.Fatalf("expected duplicates between identical sources; report %+v", rep)
	}
	if len(rep.Duplicates) > 2*MaxDuplicatesListed {
		t.Errorf("duplicate listing not capped: %d", len(rep.Duplicates))
	}
	for _, d := range rep.Duplicates {
		if !strings.HasPrefix(d.Accession, "A") {
			t.Errorf("unexpected duplicate accession %q", d.Accession)
		}
	}
}
