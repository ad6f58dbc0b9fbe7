package relstore_test

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"spider/internal/datagen"
	"spider/internal/relstore"
	"spider/internal/value"
)

// referenceTable types CSV text the way the loader did before it
// scanned files itself: encoding/csv splits the text, each column's
// kind is the widening of value.Infer over its fields (an all-NULL
// column is VARCHAR), and every field is parsed with value.Parse at its
// column's kind.
func referenceTable(t *testing.T, db *relstore.Database, name, text string) *relstore.Table {
	t.Helper()
	recs, err := csv.NewReader(strings.NewReader(text)).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	header, rows := recs[0], recs[1:]
	cols := make([]relstore.Column, len(header))
	for i, h := range header {
		cols[i].Name = h
		for _, row := range rows {
			cols[i].Kind = value.WidenKind(cols[i].Kind, value.Infer(row[i]))
		}
		if cols[i].Kind == value.Null {
			cols[i].Kind = value.String
		}
	}
	tab := db.MustCreateTable(name, cols)
	vals := make([]value.Value, len(cols))
	for _, row := range rows {
		for i, f := range row {
			vals[i] = value.Parse(f, cols[i].Kind)
		}
		tab.MustInsert(vals...)
	}
	return tab
}

// sameTable reports the first difference between got and want in
// column names, kinds, row count or any cell's kind and rendering.
func sameTable(t *testing.T, how string, got, want *relstore.Table) {
	t.Helper()
	if !reflect.DeepEqual(got.Columns, want.Columns) {
		t.Fatalf("%s %s: columns %v, reference %v", how, want.Name, got.Columns, want.Columns)
	}
	if got.RowCount() != want.RowCount() {
		t.Fatalf("%s %s: %d rows, reference %d", how, want.Name, got.RowCount(), want.RowCount())
	}
	for r := 0; r < want.RowCount(); r++ {
		for c := range want.Columns {
			g, w := got.Value(r, c), want.Value(r, c)
			if g.Kind() != w.Kind() || g.String() != w.String() {
				t.Fatalf("%s %s: row %d column %s is %v %q, reference %v %q",
					how, want.Name, r, want.Columns[c].Name, g.Kind(), g, w.Kind(), w)
			}
		}
	}
}

// checkAgainstReference loads files (table name → CSV text) with
// LoadCSVDir and each table's records with AddRecords, and requires
// both to match referenceTable cell by cell.
func checkAgainstReference(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	for name, text := range files {
		if err := os.WriteFile(filepath.Join(dir, name+".csv"), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loaded := relstore.NewDatabase("loaded")
	if _, err := loaded.LoadCSVDir(dir); err != nil {
		t.Fatal(err)
	}
	ref, added := relstore.NewDatabase("ref"), relstore.NewDatabase("added")
	for name, text := range files {
		want := referenceTable(t, ref, name, text)
		sameTable(t, "LoadCSVDir", loaded.Table(name), want)
		recs, err := csv.NewReader(strings.NewReader(text)).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		got, err := added.AddRecords(name, recs[0], recs[1:])
		if err != nil {
			t.Fatal(err)
		}
		sameTable(t, "AddRecords", got, want)
	}
}

// TestCSVTypingMatchesReferenceOnGeneratedData: the UniProt, SCOP and
// PDB generators' tables, dumped as CSV, load as the reference types
// them.
func TestCSVTypingMatchesReferenceOnGeneratedData(t *testing.T) {
	for _, db := range []*relstore.Database{
		datagen.UniProt(datagen.UniProtConfig{Seed: 3, Scale: 0.2}),
		datagen.SCOP(datagen.SCOPConfig{Seed: 3, Scale: 0.05}),
		datagen.PDB(datagen.PDBConfig{Seed: 3, Scale: 0.05}),
	} {
		files := make(map[string]string)
		for _, tab := range db.Tables() {
			var b strings.Builder
			if err := tab.DumpCSV(&b); err != nil {
				t.Fatal(err)
			}
			files[tab.Name] = b.String()
		}
		t.Run(db.Name, func(t *testing.T) { checkAgainstReference(t, files) })
	}
}

// TestCSVTypingMatchesReferenceOnEdgeCases: columns that stop being
// INTEGER partway through (007 must stay "007"), signed and
// out-of-range integers, a FLOAT column that meets a BOOLEAN, boolean
// spellings, an all-NULL column, quoted fields and CRLF line ends all
// load as the reference types them.
func TestCSVTypingMatchesReferenceOnEdgeCases(t *testing.T) {
	checkAgainstReference(t, map[string]string{
		"widen": "id,code,signed,big,fb,flag,empty,mixed\n" +
			"1,1,+5,1,1.5,TRUE,,1\n" +
			"2,007,-0,9223372036854775807,2.50,false,,2.5\n" +
			"3,abc,0,9223372036854775808,true,True,,\n" +
			"4,5,-12,-9223372036854775808,,FALSE,,-0\n",
		"late":   "a,b,c\n" + strings.Repeat("7,1.0,true\n", 200) + "x,y,z\n",
		"floats": "f,g\n-0,1e3\n0.5,1E-2\n007,.5\n1_000,+Inf\n",
		"quoted": "name,note,n\n" +
			"\"a,b\",\"say \"\"hi\"\"\",\"1\"\n" +
			"\"line\nbreak\",plain,\"2\"\n" +
			"\"\",\"\",\"\"\n",
		"crlf": "k,v\r\n1,\"x\r\ny\"\r\n\r\n2,z\r\n3,\r\n",
	})
}
