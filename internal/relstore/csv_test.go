package relstore

import (
	"encoding/csv"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// scanAll returns the records the scanner splits text into.
func scanAll(text string) ([][]string, error) {
	s := scanner{text: text, where: "csv"}
	var recs [][]string
	for {
		rec, err := s.next()
		if rec == nil || err != nil {
			return recs, err
		}
		recs = append(recs, slices.Clone(rec))
	}
}

// FuzzCSVRecords: for any text the scanner yields the records a
// default csv.Reader yields, or both fail.
func FuzzCSVRecords(f *testing.F) {
	for _, s := range []string{
		"a,b\n1,2\n",
		"a,b\n\"x,y\",\"1\n2\"\n",
		"a\n\"say \"\"hi\"\"\"\n",
		"a,b\r\n\"1\r\n2\",3\r\n\"\"\"\r\n\",4\r\n",
		"a\rb\n1\r2\n", "a,b\n1,2\r", "a\r", "\"a\"\r",
		"a\n\n\r\n \n", "a\n\t\n\n", "\r\n\r\na\n1\n\n",
		"a,b\n1,2", "a,b,\n1,2,\n", "a,b\n1,", "\ufeffa,b\n1,2\n",
		"a\nx\"y\n", "a\n\"x\"y\n", "a\n\"x\" \n", "a\n\"x\"\ry\n",
		"a\n\"x\n", "a\n\"x\"\"\n", "a,b\n1\n", "a\n1,2\n",
		"", "\n", "\"\"", "a,\"\"\"\"\n", "\"a\"\r\r\n", "a\r\r\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		got, err := scanAll(text)
		want, wantErr := csv.NewReader(strings.NewReader(text)).ReadAll()
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%q: scanner error %v, csv.Reader error %v", text, err, wantErr)
		}
		if err != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("%q: scanner %q, csv.Reader %q", text, got, want)
		}
		for i := range got {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("%q: record %d is %q, csv.Reader %q", text, i, got[i], want[i])
			}
		}
	})
}

// TestCSVErrorsNameFileAndLine: every rejected file is named with the
// line of its fault.
func TestCSVErrorsNameFileAndLine(t *testing.T) {
	for text, want := range map[string]string{
		"a,b\n1,2\n3\n":      "line 3: record has 1 fields, want 2",
		"a\nok\nx\"y\n":      `line 3: bare "`,
		"a\n\"x\ny\"z\n":     "line 3: extraneous",
		"a\n1\n\"open\n\n":   "line 3: quoted field not terminated",
		"a,b\r\n\r\n1,2,3\n": "line 3: record has 3 fields",
	} {
		dir := writeCSVDir(t, map[string]string{"bad.csv": text})
		path := filepath.Join(dir, "bad.csv")
		_, err := NewDatabase("e").LoadCSVFile(path, "")
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), path) {
			t.Errorf("%q: err = %v, want it to name %s and %q", text, err, path, want)
		}
	}
}

// TestLoadCSVAllocationsIndependentOfRows: parsing a file's text makes
// as many allocations for 10,000 rows as for 1,000: no field, record or
// row allocates, a column that widens mid-file included.
func TestLoadCSVAllocationsIndependentOfRows(t *testing.T) {
	allocs := func(rows int) float64 {
		var b strings.Builder
		b.WriteString("id,acc,mass,flag,note,code\n")
		for r := 0; r < rows; r++ {
			code := fmt.Sprint(r)
			if r == rows/2 {
				code = "x7"
			}
			fmt.Fprintf(&b, "%d,P%05d,%d.5,%v,%s,%s\n", r, r%977, r%13, r%3 == 0, []string{"", "note"}[r%2], code)
		}
		text := b.String()
		return testing.AllocsPerRun(5, func() {
			if _, err := parseCSV(strings.NewReader(text), int64(len(text)), "t", "csv"); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1_000), allocs(10_000)
	if large > small+2 {
		t.Errorf("loading 10,000 rows allocates %.0f times, 1,000 rows %.0f times", large, small)
	}
}
