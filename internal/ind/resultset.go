package ind

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"spider/internal/relstore"
	"spider/internal/value"
)

// ResultSet is the persistable outcome of one discovery run over an
// exported dataset: the attribute catalog (identity, statistics, and
// the dataset key each sorted value set was staged under) plus the
// verified INDs, referenced by attribute ID. Written once by the batch
// pipeline, it is everything a serving process needs to answer
// membership, containment, IND-lookup and re-verification queries over
// the same staged value sets — without re-running discovery.
//
// The JSON encoding is versioned by Schema; Decode validates every
// cross-reference so a corrupt or truncated file errors instead of
// panicking at query time.
type ResultSet struct {
	Schema    string          `json:"schema"`
	Dataset   string          `json:"dataset,omitempty"`
	Algorithm string          `json:"algorithm,omitempty"`
	Attrs     []ResultSetAttr `json:"attributes"`
	// INDs holds one [dependent ID, referenced ID] pair per verified
	// IND, indices into Attrs by attribute ID.
	INDs [][2]int `json:"inds"`
}

// ResultSetAttr is one attribute's persisted catalog entry.
type ResultSetAttr struct {
	ID     int    `json:"id"`
	Table  string `json:"table"`
	Column string `json:"column"`
	// Key is the dataset key the attribute's sorted distinct value set
	// is readable under (the value-file name for filesystem datasets).
	Key      string `json:"key"`
	Kind     string `json:"kind"`
	Rows     int    `json:"rows"`
	NonNull  int    `json:"non_null"`
	Distinct int    `json:"distinct"`
	Unique   bool   `json:"unique,omitempty"`
	Min      string `json:"min"`
	Max      string `json:"max"`
}

// ResultSetSchema versions the persisted encoding.
const ResultSetSchema = "spider-inds/v1"

// NewResultSet builds the persistable form of a finished run. Every
// attribute must have been exported (Key non-empty) — a result set
// referencing value sets that no longer exist is useless to a server —
// under a key that names a file inside the dataset directory (see
// checkKey), and every IND must name catalogued attributes.
func NewResultSet(dataset, algorithm string, attrs []*Attribute, inds []IND) (*ResultSet, error) {
	rs := &ResultSet{Schema: ResultSetSchema, Dataset: dataset, Algorithm: algorithm}
	byRef := make(map[string]int, len(attrs))
	for _, a := range attrs {
		// The bare staging key, not the resolved file path: the result
		// set then stays valid when the export directory moves, because
		// filesystem datasets re-root bare keys under their own
		// directory.
		key := a.Key
		if key == "" {
			return nil, fmt.Errorf("ind: result set: attribute %s was never exported to a dataset", a.Ref)
		}
		if err := checkKey(key); err != nil {
			return nil, fmt.Errorf("ind: result set: attribute %s: %w", a.Ref, err)
		}
		byRef[a.Ref.String()] = a.ID
		rs.Attrs = append(rs.Attrs, ResultSetAttr{
			ID:       a.ID,
			Table:    a.Ref.Table,
			Column:   a.Ref.Column,
			Key:      key,
			Kind:     a.Kind.String(),
			Rows:     a.Rows,
			NonNull:  a.NonNull,
			Distinct: a.Distinct,
			Unique:   a.Unique,
			Min:      a.MinCanonical,
			Max:      a.MaxCanonical,
		})
	}
	sort.Slice(rs.Attrs, func(i, j int) bool { return rs.Attrs[i].ID < rs.Attrs[j].ID })
	for _, d := range inds {
		dep, ok := byRef[d.Dep.String()]
		if !ok {
			return nil, fmt.Errorf("ind: result set: IND %s names uncatalogued attribute %s", d, d.Dep)
		}
		ref, ok := byRef[d.Ref.String()]
		if !ok {
			return nil, fmt.Errorf("ind: result set: IND %s names uncatalogued attribute %s", d, d.Ref)
		}
		rs.INDs = append(rs.INDs, [2]int{dep, ref})
	}
	return rs, nil
}

// Encode writes the result set as indented JSON.
func (rs *ResultSet) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rs)
}

// WriteFile persists the result set at path via a same-directory
// temporary file and rename, so readers never observe a half-written
// set.
func (rs *ResultSet) WriteFile(path string) error {
	tmp, err := os.CreateTemp(dirOf(path), ".inds-*")
	if err != nil {
		return fmt.Errorf("ind: result set: %w", err)
	}
	if err := rs.Encode(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("ind: result set: %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("ind: result set: %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("ind: result set: %w", err)
	}
	return nil
}

// dirOf returns path's directory, "." for bare names.
func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if os.IsPathSeparator(path[i]) {
			return path[:i+1]
		}
	}
	return "."
}

// checkKey rejects a dataset key that does not name a file directly
// inside the dataset directory. store.FS uses absolute and
// separator-bearing keys verbatim, so such a key would make a server
// read a file outside the directory it was pointed at.
func checkKey(key string) error {
	if key == "." || key == ".." || strings.ContainsRune(key, '/') || strings.ContainsRune(key, os.PathSeparator) {
		return fmt.Errorf("dataset key %q is not a plain file name", key)
	}
	return nil
}

// maxResultSetBytes bounds a decoded result set; a corrupted length
// cannot drive an unbounded read.
const maxResultSetBytes = 1 << 30

// DecodeResultSet reads and validates a result set written by Encode.
// Validation covers everything query-time code relies on: schema
// version, dense unique attribute IDs, non-empty names, keys that name
// a file inside the dataset directory, known kinds, and IND references
// in range — so a decoded set can be served without further checks.
func DecodeResultSet(r io.Reader) (*ResultSet, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxResultSetBytes))
	if err != nil {
		return nil, fmt.Errorf("ind: result set: %w", err)
	}
	rs := &ResultSet{}
	if err := json.Unmarshal(data, rs); err != nil {
		return nil, fmt.Errorf("ind: result set: %w", err)
	}
	if rs.Schema != ResultSetSchema {
		return nil, fmt.Errorf("ind: result set: unknown schema %q (want %q)", rs.Schema, ResultSetSchema)
	}
	seenID := make(map[int]bool, len(rs.Attrs))
	seenRef := make(map[relstore.ColumnRef]bool, len(rs.Attrs))
	for _, a := range rs.Attrs {
		ref := relstore.ColumnRef{Table: a.Table, Column: a.Column}
		switch {
		case a.ID < 0 || a.ID >= len(rs.Attrs):
			return nil, fmt.Errorf("ind: result set: attribute ID %d out of range [0, %d)", a.ID, len(rs.Attrs))
		case seenID[a.ID]:
			return nil, fmt.Errorf("ind: result set: duplicate attribute ID %d", a.ID)
		case a.Table == "" || a.Column == "":
			return nil, fmt.Errorf("ind: result set: attribute %d has an empty table or column name", a.ID)
		case seenRef[ref]:
			return nil, fmt.Errorf("ind: result set: duplicate attribute %s", ref)
		case a.Key == "":
			return nil, fmt.Errorf("ind: result set: attribute %s has no dataset key", ref)
		}
		if err := checkKey(a.Key); err != nil {
			return nil, fmt.Errorf("ind: result set: attribute %s: %w", ref, err)
		}
		if _, ok := value.ParseKind(a.Kind); !ok {
			return nil, fmt.Errorf("ind: result set: attribute %s has unknown kind %q", ref, a.Kind)
		}
		seenID[a.ID] = true
		seenRef[ref] = true
	}
	for _, p := range rs.INDs {
		if !seenID[p[0]] || !seenID[p[1]] {
			return nil, fmt.Errorf("ind: result set: IND [%d ⊆ %d] references an unknown attribute ID", p[0], p[1])
		}
	}
	return rs, nil
}

// ReadResultSetFile loads and validates the result set at path.
func ReadResultSetFile(path string) (*ResultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ind: result set: %w", err)
	}
	defer f.Close()
	return DecodeResultSet(f)
}

// Attributes reconstructs the attribute catalog, indexed by ID exactly
// as CollectAttributes assigned them. Attribute.Key carries the dataset
// key; Path stays empty (the serving side resolves keys through
// whatever dataset it staged, not the original file layout). Sketches
// are not loaded here — LoadSketches fills them from the dataset's
// persisted sections.
func (rs *ResultSet) Attributes() ([]*Attribute, error) {
	out := make([]*Attribute, len(rs.Attrs))
	for _, a := range rs.Attrs {
		kind, ok := value.ParseKind(a.Kind)
		if !ok {
			return nil, fmt.Errorf("ind: result set: attribute %s.%s has unknown kind %q", a.Table, a.Column, a.Kind)
		}
		out[a.ID] = &Attribute{
			ID:           a.ID,
			Ref:          relstore.ColumnRef{Table: a.Table, Column: a.Column},
			Kind:         kind,
			Rows:         a.Rows,
			NonNull:      a.NonNull,
			Distinct:     a.Distinct,
			Unique:       a.Unique,
			MinCanonical: a.Min,
			MaxCanonical: a.Max,
			Key:          a.Key,
		}
	}
	return out, nil
}

// INDList materialises the persisted verdicts against the reconstructed
// catalog (attrs must come from Attributes on the same set).
func (rs *ResultSet) INDList(attrs []*Attribute) []IND {
	out := make([]IND, 0, len(rs.INDs))
	for _, p := range rs.INDs {
		out = append(out, IND{Dep: attrs[p[0]].Ref, Ref: attrs[p[1]].Ref})
	}
	sortINDs(out)
	return out
}
