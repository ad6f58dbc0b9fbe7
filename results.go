package spider

import (
	"errors"
	"fmt"

	"spider/internal/ind"
	"spider/internal/relstore"
)

// Result-set persistence: a discovery run's output — the attribute
// catalog (with the dataset key each exported value set is readable
// under) plus the verified INDs — written once as a versioned JSON
// file and loadable forever after. This is the handoff between batch
// discovery and serving: indfind -out writes the set next to the
// exported value files, and the indserved daemon loads both to answer
// membership, containment, IND-lookup and re-verification queries
// without re-running discovery.

// ErrSpillResult is returned by SaveResultSet for runs on the spill
// backend: their value sets lived in spill runs that were removed when
// the discovery call returned, so a saved catalog would point at
// nothing.
var ErrSpillResult = errors.New("spider: SaveResultSet: the spill backend removes its value sets when discovery returns; use the fs backend to persist a result set")

// SaveResultSet persists the run's attribute catalog and verified INDs
// at path (conventionally INDS.json inside the run's work directory).
// It requires a run whose attributes were exported to a dataset that
// outlives the call — any file-backed or in-memory run. Spill-backed
// runs return ErrSpillResult.
func (r *Result) SaveResultSet(path string) error {
	if r.spilled {
		return ErrSpillResult
	}
	if len(r.attrs) == 0 {
		return fmt.Errorf("spider: SaveResultSet: result carries no attribute catalog (not produced by FindINDs?)")
	}
	inds := make([]ind.IND, 0, len(r.INDs))
	for _, d := range r.INDs {
		inds = append(inds, ind.IND{
			Dep: relstore.ColumnRef{Table: d.Dep.Table, Column: d.Dep.Column},
			Ref: relstore.ColumnRef{Table: d.Ref.Table, Column: d.Ref.Column},
		})
	}
	rs, err := ind.NewResultSet(r.dataset, r.algorithm, r.attrs, inds)
	if err != nil {
		return fmt.Errorf("spider: SaveResultSet: %w", err)
	}
	return rs.WriteFile(path)
}

// ResultSet is the loaded view of a persisted result set: per-attribute
// metadata plus the verified INDs. It is the inspection API; the
// serving daemon consumes the same file through its own loader.
type ResultSet struct {
	// Dataset and Algorithm identify the run that wrote the set.
	Dataset   string
	Algorithm string
	// Attributes lists the catalog in ID order.
	Attributes []AttributeMeta
	// INDs holds the verified inclusion dependencies.
	INDs []IND
}

// AttributeMeta is one attribute's persisted catalog entry.
type AttributeMeta struct {
	// Table and Column name the attribute.
	Table, Column string
	// Key is the dataset key (the value-file name for filesystem
	// datasets) the sorted distinct value set is readable under.
	Key string
	// Kind is the declared column type (e.g. "VARCHAR", "INTEGER").
	Kind string
	// Rows, NonNull and Distinct summarise the column; Unique reports
	// whether every non-null value is distinct.
	Rows, NonNull, Distinct int
	Unique                  bool
}

// Name returns the attribute's table.column name.
func (m AttributeMeta) Name() string { return m.Table + "." + m.Column }

// LoadResultSet reads and validates a result set written by
// SaveResultSet (or by indfind -out).
func LoadResultSet(path string) (*ResultSet, error) {
	rs, err := ind.ReadResultSetFile(path)
	if err != nil {
		return nil, fmt.Errorf("spider: %w", err)
	}
	attrs, err := rs.Attributes()
	if err != nil {
		return nil, fmt.Errorf("spider: %w", err)
	}
	out := &ResultSet{Dataset: rs.Dataset, Algorithm: rs.Algorithm}
	for _, a := range attrs {
		out.Attributes = append(out.Attributes, AttributeMeta{
			Table:    a.Ref.Table,
			Column:   a.Ref.Column,
			Key:      a.Key,
			Kind:     a.Kind.String(),
			Rows:     a.Rows,
			NonNull:  a.NonNull,
			Distinct: a.Distinct,
			Unique:   a.Unique,
		})
	}
	for _, d := range rs.INDList(attrs) {
		out.INDs = append(out.INDs, IND{
			Dep: ColumnRef{Table: d.Dep.Table, Column: d.Dep.Column},
			Ref: ColumnRef{Table: d.Ref.Table, Column: d.Ref.Column},
		})
	}
	return out, nil
}
