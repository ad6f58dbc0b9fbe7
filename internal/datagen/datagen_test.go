package datagen

import (
	"reflect"
	"testing"

	"spider/internal/ind"
	"spider/internal/relstore"
	"spider/internal/store"
)

func TestUniProtShape(t *testing.T) {
	db := UniProt(UniProtConfig{Seed: 42, Scale: 0.05})
	tables := db.Tables()
	if len(tables) != 16 {
		t.Errorf("tables = %d, want 16 (paper Sec 1.4)", len(tables))
	}
	if got := len(db.Columns()); got != 85 {
		t.Errorf("attributes = %d, want 85 (paper Sec 1.4)", got)
	}
	if db.Table("sg_comment").RowCount() != 0 || db.Table("sg_term_synonym").RowCount() != 0 {
		t.Error("sg_comment and sg_term_synonym must be empty (Sec 5 unfindable FKs)")
	}
	if len(db.ForeignKeys()) < 15 {
		t.Errorf("declared FKs = %d, want a rich gold standard", len(db.ForeignKeys()))
	}
}

func TestUniProtDeterministic(t *testing.T) {
	a := UniProt(UniProtConfig{Seed: 7, Scale: 0.05})
	b := UniProt(UniProtConfig{Seed: 7, Scale: 0.05})
	for _, ta := range a.Tables() {
		tb := b.Table(ta.Name)
		if tb == nil || tb.RowCount() != ta.RowCount() {
			t.Fatalf("table %s differs between runs", ta.Name)
		}
		for i := 0; i < ta.RowCount(); i++ {
			if !reflect.DeepEqual(ta.Row(i), tb.Row(i)) {
				t.Fatalf("table %s row %d differs", ta.Name, i)
			}
		}
	}
	c := UniProt(UniProtConfig{Seed: 8, Scale: 0.05})
	diff := false
	for _, ta := range a.Tables() {
		tc := c.Table(ta.Name)
		for i := 0; i < ta.RowCount() && i < tc.RowCount(); i++ {
			if !reflect.DeepEqual(ta.Row(i), tc.Row(i)) {
				diff = true
			}
		}
	}
	if !diff {
		t.Error("different seeds must produce different data")
	}
}

// All declared foreign keys on non-empty tables must actually hold in the
// data — otherwise the gold-standard evaluation of Sec 5 is meaningless.
func TestUniProtForeignKeysHold(t *testing.T) {
	db := UniProt(UniProtConfig{Seed: 42, Scale: 0.08})
	checkForeignKeysHold(t, db)
}

func checkForeignKeysHold(t *testing.T, db *relstore.Database) {
	t.Helper()
	for _, fk := range db.ForeignKeys() {
		depTab := db.Table(fk.Dep.Table)
		if depTab.RowCount() == 0 {
			continue
		}
		dep, err := depTab.DistinctCanonical(fk.Dep.Column)
		if err != nil {
			t.Fatal(err)
		}
		refVals, err := db.Table(fk.Ref.Table).DistinctCanonical(fk.Ref.Column)
		if err != nil {
			t.Fatal(err)
		}
		refSet := make(map[string]struct{}, len(refVals))
		for _, v := range refVals {
			refSet[v] = struct{}{}
		}
		for _, v := range dep {
			if _, ok := refSet[v]; !ok {
				t.Errorf("declared FK %s ⊆ %s violated by value %q", fk.Dep, fk.Ref, v)
				break
			}
		}
	}
}

// Referenced sides of FKs must be unique columns, or the discovery cannot
// treat them as referenced candidates.
func TestUniProtFKTargetsUnique(t *testing.T) {
	db := UniProt(UniProtConfig{Seed: 42, Scale: 0.08})
	for _, fk := range db.ForeignKeys() {
		st, err := db.ColumnStats(fk.Ref)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Unique {
			t.Errorf("FK target %s is not unique", fk.Ref)
		}
	}
}

func TestSCOPShape(t *testing.T) {
	db := SCOP(SCOPConfig{Seed: 42, Scale: 0.05})
	if got := len(db.Tables()); got != 4 {
		t.Errorf("tables = %d, want 4", got)
	}
	if got := len(db.Columns()); got != 22 {
		t.Errorf("attributes = %d, want 22 (paper Sec 1.4)", got)
	}
	if len(db.ForeignKeys()) != 0 {
		t.Error("SCOP declares no foreign keys (flat files)")
	}
}

func TestPDBShape(t *testing.T) {
	db := PDB(PDBConfig{Seed: 42, Scale: 0.05})
	if got := len(db.Tables()); got != 39 {
		t.Errorf("tables = %d, want 39 (paper's second fraction)", got)
	}
	attrs := len(db.Columns())
	if attrs < 500 || attrs > 580 {
		t.Errorf("attributes = %d, want ≈541 (paper's second fraction)", attrs)
	}
	if len(db.ForeignKeys()) != 0 {
		t.Error("OpenMMS declares no foreign keys (Sec 5)")
	}
}

func TestPDBSurrogatePathology(t *testing.T) {
	db := PDB(PDBConfig{Seed: 42, Scale: 0.05, Tables: 10})
	// Every id column starts at 1 and counts densely.
	for _, tab := range db.Tables() {
		if tab.ColumnIndex("id") < 0 || tab.RowCount() == 0 {
			continue
		}
		st, err := db.ColumnStats(relstore.ColumnRef{Table: tab.Name, Column: "id"})
		if err != nil {
			t.Fatal(err)
		}
		if !st.Unique {
			t.Errorf("%s.id must be unique", tab.Name)
		}
		if st.MinCanonical != "1" {
			t.Errorf("%s.id range must begin at 1, got %q", tab.Name, st.MinCanonical)
		}
	}
}

func TestPDBWideAtoms(t *testing.T) {
	small := PDB(PDBConfig{Seed: 1, Scale: 0.02, Tables: 8})
	wide := PDB(PDBConfig{Seed: 1, Scale: 0.02, Tables: 8, WideAtoms: true})
	if len(wide.Tables()) != len(small.Tables())+2 {
		t.Error("WideAtoms must add two tables")
	}
	if wide.TotalRows() <= small.TotalRows() {
		t.Error("atom tables must dominate row counts")
	}
}

// End-to-end sanity: discovery over the scaled UniProt dataset finds every
// non-empty declared FK and produces no IND outside the FK closure. This
// pins the "no false positives" property of Sec 5 for the default seed.
func TestUniProtDiscoveryMatchesGoldStandard(t *testing.T) {
	db := UniProt(UniProtConfig{Seed: 42, Scale: 0.05})
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

	found := make(map[string]bool)
	for _, d := range res.Satisfied {
		found[d.Dep.String()+"<"+d.Ref.String()] = true
	}
	// Every declared FK on a non-empty table must be found.
	declared := make(map[string]bool)
	for _, fk := range db.ForeignKeys() {
		if db.Table(fk.Dep.Table).RowCount() == 0 {
			continue
		}
		key := fk.Dep.String() + "<" + fk.Ref.String()
		declared[key] = true
		if !found[key] {
			t.Errorf("declared FK not found: %s ⊆ %s", fk.Dep, fk.Ref)
		}
	}
	// Everything else found must be in the transitive closure of the
	// declared FKs (no false positives).
	closure := transitiveClosure(declared)
	for key := range found {
		if !closure[key] {
			t.Errorf("IND outside FK closure (false positive): %s", key)
		}
	}
	if len(found) <= len(declared) {
		t.Errorf("expected transitive INDs beyond the %d declared FKs, found %d INDs",
			len(declared), len(found))
	}
}

// transitiveClosure closes a dep<ref edge set under transitivity.
func transitiveClosure(edges map[string]bool) map[string]bool {
	type edge struct{ dep, ref string }
	var es []edge
	for k := range edges {
		var d, r string
		for i := 0; i < len(k); i++ {
			if k[i] == '<' {
				d, r = k[:i], k[i+1:]
				break
			}
		}
		es = append(es, edge{d, r})
	}
	out := make(map[string]bool, len(edges))
	for k, v := range edges {
		out[k] = v
	}
	for changed := true; changed; {
		changed = false
		adj := make(map[string][]string)
		for k := range out {
			for i := 0; i < len(k); i++ {
				if k[i] == '<' {
					adj[k[:i]] = append(adj[k[:i]], k[i+1:])
					break
				}
			}
		}
		for dep, refs := range adj {
			for _, mid := range refs {
				for _, far := range adj[mid] {
					key := dep + "<" + far
					if dep != far && !out[key] {
						out[key] = true
						changed = true
					}
				}
			}
		}
	}
	return out
}
