package relstore

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"spider/internal/value"
)

// LoadCSVFile creates one table from a CSV file. The first record is the
// header; column kinds are inferred by scanning every field and widening
// (Int → Float → String). Empty fields load as NULL. The table is named
// after the file's base name without extension unless name is non-empty.
//
// This is the reproduction's stand-in for the paper's step-1 import of
// downloaded flat files into the Aladin database (Fig. 1): "data sources
// are downloaded in whatever format and imported".
func (db *Database) LoadCSVFile(path, name string) (*Table, error) {
	return db.register(parseCSVFile(path, name))
}

// LoadCSVDir loads every *.csv file in dir (non-recursively) as one table
// each. The files are parsed concurrently; once all are parsed the tables
// are registered in sorted file name order, which is also the order of
// the returned tables. When a file fails, the error is that of the first
// failing file in name order and no table is registered.
func (db *Database) LoadCSVDir(dir string) ([]*Table, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("relstore: %w", err)
	}
	var paths []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(strings.ToLower(e.Name()), ".csv") {
			continue
		}
		paths = append(paths, filepath.Join(dir, e.Name()))
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("relstore: no .csv files in %q", dir)
	}
	tables := make([]*Table, len(paths))
	errs := make([]error, len(paths))
	parallel(len(paths), func(i int) { tables[i], errs[i] = parseCSVFile(paths[i], "") })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := db.add(tables...); err != nil {
		return nil, err
	}
	return tables, nil
}

// AddRecords creates a table from a header and string rows, typed as
// LoadCSVFile types a file's records, and registers it.
func (db *Database) AddRecords(name string, header []string, rows [][]string) (*Table, error) {
	for _, row := range rows {
		if len(row) != len(header) {
			return nil, fmt.Errorf("relstore: table %q: row has %d fields, want %d", name, len(row), len(header))
		}
	}
	return db.register(typedTable(name, header, rows))
}

// loadCSV parses r as table name and registers it.
func (db *Database) loadCSV(r io.Reader, name string) (*Table, error) {
	return db.register(parseCSV(r, name))
}

// parseCSVFile parses the CSV file at path into a table that belongs to
// no database yet, named as LoadCSVFile names it.
func parseCSVFile(path, name string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("relstore: %w", err)
	}
	defer f.Close()
	if name == "" {
		base := filepath.Base(path)
		name = strings.TrimSuffix(base, filepath.Ext(base))
	}
	return parseCSV(f, name)
}

// parseCSV reads a header and records from r and types them with
// typedTable.
func parseCSV(r io.Reader, name string) (*Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("relstore: csv %q: empty file", name)
	}
	if err != nil {
		return nil, fmt.Errorf("relstore: csv %q: %w", name, err)
	}
	header = append([]string(nil), header...)
	// The fields are kept in chunks of whole rows whose capacity doubles
	// up to maxChunk fields, so growing never copies a field. The reader
	// reuses the record slice but not its strings, so the fields can be
	// kept as they are.
	const maxChunk = 1 << 16
	var chunks [][]string
	var chunk []string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relstore: csv %q: %w", name, err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("relstore: csv %q: record has %d fields, want %d", name, len(rec), len(header))
		}
		if len(chunk)+len(rec) > cap(chunk) {
			if len(chunk) > 0 {
				chunks = append(chunks, chunk)
			}
			chunk = make([]string, 0, max(min(2*cap(chunk), maxChunk), 64*len(rec)))
		}
		chunk = append(chunk, rec...)
	}
	if len(chunk) > 0 {
		chunks = append(chunks, chunk)
	}
	return typedTable(name, header, chunks)
}

// typedTable builds a table that belongs to no database yet from a header
// and its rows' fields, held in chunks of one or more whole rows each,
// row after row. A column's kind is the widening (Int → Float → String)
// of its fields' inferred kinds, and an all-NULL column is stored as
// VARCHAR. Each column is parsed into its own exact-size vector: an
// INTEGER column into an int64 vector, any other into a value vector.
func typedTable(name string, header []string, chunks [][]string) (*Table, error) {
	cols := make([]Column, len(header))
	for i, h := range header {
		cols[i].Name = h
	}
	t, err := newTable(name, cols)
	if err != nil {
		return nil, err
	}
	cols, n := t.Columns, len(cols)
	fields := 0
	for _, c := range chunks {
		fields += len(c)
		for r := 0; r < len(c); r += n {
			for i, f := range c[r : r+n] {
				cols[i].Kind = value.WidenKind(cols[i].Kind, value.Infer(f))
			}
		}
	}
	for i := range cols {
		if cols[i].Kind == value.Null {
			cols[i].Kind = value.String
		}
	}
	t.n = fields / n
	for i := range cols {
		col := newColumn(cols[i].Kind, t.n)
		for _, c := range chunks {
			for r := i; r < len(c); r += n {
				col.append(value.Parse(c[r], cols[i].Kind))
			}
		}
		t.cols[i] = col
	}
	return t, nil
}

// DumpCSV writes the table as CSV (header + rows), the inverse of
// LoadCSVFile; used by examples and tests to round-trip datasets.
func (t *Table) DumpCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		header[i] = c.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(t.Columns))
	for r := 0; r < t.n; r++ {
		for i := range t.cols {
			if v := t.cols[i].value(r); v.IsNull() {
				rec[i] = ""
			} else {
				rec[i] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
