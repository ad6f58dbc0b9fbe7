package relstore

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"spider/internal/value"
)

// LoadCSVFile creates one table from a CSV file. The file is read whole
// and split by encoding/csv's default reading rules: comma-separated
// fields, "-quoted fields that may hold "" escapes, commas and line
// breaks, \r\n read as \n, blank lines skipped, and every record with
// as many fields as the header, its first record. Column kinds are
// inferred by scanning every field and widening (Int → Float → String);
// empty fields load as NULL. VARCHAR values share the file's text. The
// table is named after the file's base name without extension unless
// name is non-empty.
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
	// Each file keeps its own error, so the first file in name order
	// that fails is the one reported; fn itself never fails.
	_ = Parallel(len(paths), func(i int) error {
		tables[i], errs[i] = parseCSVFile(paths[i], "")
		return nil
	})
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
	return db.register(typedTable(name, header, len(rows), func(yield func([]string) bool) error {
		for _, row := range rows {
			if !yield(row) {
				break
			}
		}
		return nil
	}))
}

// loadCSV parses r as table name and registers it.
func (db *Database) loadCSV(r io.Reader, name string) (*Table, error) {
	return db.register(parseCSV(r, 0, name, fmt.Sprintf("csv %q", name)))
}

// parseCSVFile parses the CSV file at path into a table that belongs to
// no database yet, named as LoadCSVFile names it.
func parseCSVFile(path, name string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("relstore: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("relstore: %w", err)
	}
	if name == "" {
		base := filepath.Base(path)
		name = strings.TrimSuffix(base, filepath.Ext(base))
	}
	return parseCSV(f, fi.Size(), name, fmt.Sprintf("csv %q (%s)", name, path))
}

// parseCSV reads r whole into one string, sized for size bytes, splits
// it into a header and records and types them with typedTable. where
// names the input in errors.
func parseCSV(r io.Reader, size int64, name, where string) (*Table, error) {
	var b strings.Builder
	b.Grow(int(size))
	if _, err := io.Copy(&b, r); err != nil {
		return nil, fmt.Errorf("relstore: %s: %w", where, err)
	}
	text := b.String()
	s := scanner{text: text, where: where}
	header, err := s.next()
	if err != nil {
		return nil, err
	}
	if header == nil {
		return nil, fmt.Errorf("relstore: %s: empty file", where)
	}
	// The records are at most the lines after the header.
	start := s.pos
	data := text[start:]
	rows := strings.Count(data, "\n")
	if data != "" && data[len(data)-1] != '\n' {
		rows++
	}
	return typedTable(name, header, rows, func(yield func([]string) bool) error {
		s := scanner{text: text, pos: start, fields: len(header), where: where}
		for {
			rec, err := s.next()
			if rec == nil || err != nil {
				return err
			}
			if !yield(rec) {
				return nil
			}
		}
	})
}

// scanner splits CSV text into records by encoding/csv's default
// reading rules. Its fields are substrings of the text, except a quoted
// field holding "" or \r\n, which is unescaped into a new string.
type scanner struct {
	text   string
	pos    int // offset of the first byte not yet read
	fields int // fields per record, set by the first record
	where  string
	rec    []string // the last record, reused by the next
}

// next returns the next record, or nil at the end of the text. The
// record is valid until the next call.
func (s *scanner) next() ([]string, error) {
	t := s.text
	i := s.pos
	// Skip blank lines: \n, \r\n, and a \r that ends the text.
	for i < len(t) && (t[i] == '\n' || t[i] == '\r' && (i+1 == len(t) || t[i+1] == '\n')) {
		i++
	}
	if i == len(t) {
		s.pos = i
		return nil, nil
	}
	start := i
	s.rec = s.rec[:0]
	for {
		var f string
		if i < len(t) && t[i] == '"' {
			var err error
			if f, i, err = s.quoted(i); err != nil {
				return nil, err
			}
		} else {
			j := i
			for j < len(t) && t[j] != ',' && t[j] != '\n' && t[j] != '"' {
				j++
			}
			if j < len(t) && t[j] == '"' {
				return nil, s.errorf(j, `bare " in unquoted field`)
			}
			f, i = t[i:j], j
			if (i == len(t) || t[i] == '\n') && f != "" && f[len(f)-1] == '\r' {
				f = f[:len(f)-1]
			}
		}
		s.rec = append(s.rec, f)
		if i < len(t) && t[i] == ',' {
			i++
			continue
		}
		if i < len(t) {
			i++ // the \n that ends the record
		}
		break
	}
	s.pos = i
	if s.fields == 0 {
		s.fields = len(s.rec)
	} else if len(s.rec) != s.fields {
		return nil, s.errorf(start, "record has %d fields, want %d", len(s.rec), s.fields)
	}
	return s.rec, nil
}

// quoted reads the quoted field whose opening quote is t[i]. It returns
// the field and the offset of the , or \n that follows its closing
// quote (an ending \r skipped), or the end of the text.
func (s *scanner) quoted(i int) (string, int, error) {
	t := s.text
	for j := i + 1; ; {
		k := strings.IndexByte(t[j:], '"')
		if k < 0 {
			return "", 0, s.errorf(i, `quoted field not terminated`)
		}
		q := j + k
		if q+1 < len(t) && t[q+1] == '"' {
			j = q + 2
			continue
		}
		// ReplaceAll returns the text itself when it has nothing to replace.
		f := strings.ReplaceAll(strings.ReplaceAll(t[i+1:q], `""`, `"`), "\r\n", "\n")
		end := q + 1
		if end < len(t) && t[end] == '\r' && (end+1 == len(t) || t[end+1] == '\n') {
			end++
		}
		if end < len(t) && t[end] != ',' && t[end] != '\n' {
			return "", 0, s.errorf(q+1, `extraneous " or text after quoted field`)
		}
		return f, end, nil
	}
}

// errorf returns an error that names the input and the line of offset
// off.
func (s *scanner) errorf(off int, format string, args ...any) error {
	line := 1 + strings.Count(s.text[:off], "\n")
	return fmt.Errorf("relstore: %s: line %d: %s", s.where, line, fmt.Sprintf(format, args...))
}

// typedTable builds a table that belongs to no database yet from a
// header and the records each yields, at most rows of them. A column's
// kind is the widening (Int → Float → String) of its fields' inferred
// kinds, and an all-NULL column is stored as VARCHAR. Each field is
// parsed once, at the kind its column has when the field arrives: an
// INTEGER field straight into its column's int64 vector, a VARCHAR
// field as the field itself. A field that widens its column from a kind
// other than NULL leaves the column's earlier values typed at the wrong
// kind; once every kind is final, each is called again for those
// records only, and their fields are typed again from their text.
func typedTable(name string, header []string, rows int, each func(yield func([]string) bool) error) (*Table, error) {
	cols := make([]Column, len(header))
	for i, h := range header {
		cols[i].Name = strings.Clone(h) // a name must not keep the file's text alive
	}
	t, err := newTable(name, cols)
	if err != nil {
		return nil, err
	}
	ty := typer{kinds: make([]value.Kind, len(cols)), cols: t.cols, redo: make([]int, len(cols)), size: rows}
	if err := each(ty.add); err != nil {
		return nil, err
	}
	if err := ty.retype(each); err != nil {
		return nil, err
	}
	n := ty.rows
	for i := range t.cols {
		c := &t.cols[i]
		switch ty.kinds[i] {
		case value.Null:
			ty.kinds[i] = value.String
			*c = column{boxed: true, vals: make([]value.Value, n)}
		case value.Int:
			c.ints, c.nulls = c.ints[:n], c.nulls[:(n+63)/64]
		default:
			c.vals = c.vals[:n]
		}
		t.Columns[i].Kind = ty.kinds[i]
	}
	t.n = n
	return t, nil
}

// typer types a table's records as they arrive, column by column. A
// column of kind NULL has no vector yet; an INTEGER column is an int64
// vector and a null mask, any other a value vector, each of length
// size and indexed by record.
type typer struct {
	kinds []value.Kind
	cols  []column
	// redo[i] is the number of leading records whose field i must be
	// typed again at column i's final kind.
	redo []int
	rows int // records added
	size int
}

// add types the fields of the next record. It always returns true, so
// that it can be each's yield.
func (ty *typer) add(rec []string) bool {
	r := ty.rows
	ty.rows++
	for i, f := range rec {
		c := &ty.cols[i]
		switch k := ty.kinds[i]; {
		case f == "":
			if k == value.Int {
				c.nulls[r/64] |= 1 << (r % 64)
			}
			continue
		case k == value.Int:
			if v, ok := value.ParseInt(f); ok {
				c.ints[r] = v
				continue
			}
		case k == value.String:
			c.vals[r] = value.NewString(f)
			continue
		case k == value.Float:
			if x, ok := value.ParseFloat(f); ok {
				c.vals[r] = value.NewFloat(x)
				continue
			}
		}
		ty.widen(i, r, f)
	}
	return true
}

// widen types field f of record r, which the fast paths of add did not:
// it widens column i's kind by f's inferred kind and stores f at it.
func (ty *typer) widen(i, r int, f string) {
	c := &ty.cols[i]
	old := ty.kinds[i]
	k := value.WidenKind(old, value.Infer(f))
	if k != old {
		if old != value.Null {
			ty.redo[i] = r
		}
		switch {
		case k == value.Int:
			// Every record before r is NULL in this column.
			*c = column{ints: make([]int64, ty.size), nulls: make([]uint64, (ty.size+63)/64)}
			for q := 0; q < r; q++ {
				c.nulls[q/64] |= 1 << (q % 64)
			}
		case old == value.Null || old == value.Int:
			*c = column{boxed: true, vals: make([]value.Value, ty.size)}
		}
		ty.kinds[i] = k
	}
	if k == value.Int {
		c.ints[r], _ = value.ParseInt(f)
	} else {
		c.vals[r] = value.Parse(f, k)
	}
}

// retype types again, at its column's final kind, every field that
// redo marks, calling each once if any field is marked.
func (ty *typer) retype(each func(yield func([]string) bool) error) error {
	last := slices.Max(ty.redo)
	if last == 0 {
		return nil
	}
	r := 0
	return each(func(rec []string) bool {
		for i, n := range ty.redo {
			if r < n {
				ty.cols[i].vals[r] = value.Parse(rec[i], ty.kinds[i])
			}
		}
		r++
		return r < last
	})
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
