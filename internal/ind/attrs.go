// Package ind implements the paper's unary inclusion dependency discovery:
// candidate generation with pretests (Sec 1.2, 2), the three SQL approaches
// (Sec 2.1), the brute-force algorithm (Sec 3.1, Algorithm 1), the
// single-pass algorithm (Sec 3.2, Algorithms 2 and 3), the candidate
// pruning heuristics (Sec 4.1) and the block-wise single-pass extension
// proposed in Sec 4.2.
package ind

import (
	"bytes"
	"fmt"
	"strings"

	"spider/internal/extsort"
	"spider/internal/relstore"
	"spider/internal/sketch"
	"spider/internal/store"
	"spider/internal/valfile"
	"spider/internal/value"
)

// Attribute is one column prepared for IND testing: its identity, the
// statistics the pretests need, and (after export) the key of the
// sorted distinct value set the order-based algorithms traverse, in
// the dataset it was exported to.
type Attribute struct {
	// ID is a dense index, assigned in catalog order.
	ID int
	// Ref names the column.
	Ref relstore.ColumnRef
	// Kind is the declared column type.
	Kind value.Kind
	// Rows, NonNull, Distinct and Unique summarise the column's data.
	Rows     int
	NonNull  int
	Distinct int
	Unique   bool
	// MinCanonical/MaxCanonical bound the value set in canonical order;
	// MaxCanonical drives the Sec 4.1 pretest.
	MinCanonical string
	MaxCanonical string
	// Deprecated: unread; perfbench/batch.go still sets it.
	Path string
	// Key is the attribute's staging key inside the dataset it was
	// exported to, "" until exported.
	Key string
	// Sketch is the attribute's pre-filter summary (KMV signature +
	// partitioned bloom filter); nil until built by an export with
	// ExportConfig.Sketches, by LoadSketches, or by
	// BuildAttributeSketches.
	Sketch *sketch.Sketch
}

// String implements fmt.Stringer.
func (a *Attribute) String() string { return a.Ref.String() }

// StoreKey returns Key.
//
// Deprecated: read Key; perfbench/batch.go still calls it.
func (a *Attribute) StoreKey() string { return a.Key }

// NonEmpty reports whether the attribute has at least one non-null value.
func (a *Attribute) NonEmpty() bool { return a.NonNull > 0 }

// DependentCandidate reports whether the attribute may appear on the
// dependent side: "non-empty columns of any type except LOB" (Sec 2).
func (a *Attribute) DependentCandidate() bool {
	return a.NonEmpty() && a.Kind != value.LOB
}

// ReferencedCandidate reports whether the attribute may appear on the
// referenced side: "non-empty unique columns" (Sec 2). LOBs are excluded
// here too, since every referenced attribute is also a dependent one.
func (a *Attribute) ReferencedCandidate() bool {
	return a.NonEmpty() && a.Unique && a.Kind != value.LOB
}

// CollectAttributes gathers one Attribute per column of db, in catalog
// order, computing statistics from the stored data.
func CollectAttributes(db *relstore.Database) ([]*Attribute, error) {
	var out []*Attribute
	for _, ref := range db.Columns() {
		st, err := db.ColumnStats(ref)
		if err != nil {
			return nil, err
		}
		kind, err := db.ColumnKind(ref)
		if err != nil {
			return nil, err
		}
		out = append(out, &Attribute{
			ID:           len(out),
			Ref:          ref,
			Kind:         kind,
			Rows:         st.Rows,
			NonNull:      st.NonNull,
			Distinct:     st.Distinct,
			Unique:       st.Unique,
			MinCanonical: st.MinCanonical,
			MaxCanonical: st.MaxCanonical,
		})
	}
	return out, nil
}

// ExportConfig controls sorted value set export.
type ExportConfig struct {
	// Dataset receives the staged value sets; it is required. Its
	// backend decides the encoding (a filesystem dataset's format).
	Dataset store.Dataset
	// Deprecated: unread; perfbench/batch.go still sets it.
	Dir string
	// Deprecated: unread; perfbench/batch.go still sets it.
	Sort extsort.Config
	// Deprecated: unread; perfbench/batch.go still sets it.
	Workers int
	// Sketches additionally builds each attribute's pre-filter sketch
	// (KMV min-hash signature + partitioned bloom filter) in the same
	// streaming pass, observing each distinct value once as it is
	// staged. The sketch is persisted as a section of the value set.
	Sketches bool
	// SketchConfig sizes the sketches; the zero value selects the
	// sketch package defaults.
	SketchConfig sketch.Config
	// Deprecated: unread; perfbench/batch.go still sets it.
	Format valfile.Format
}

// ExportAttributes stages each attribute's sorted distinct value set
// into cfg.Dataset and fills Attribute.Key. This is the paper's
// extraction step: "All value sets are extracted from the database and
// stored in sorted files" (Sec 3.2), with the sort performed once per
// attribute rather than once per IND test — the first optimization of
// Sec 1.2. The sort is the column pass that computed the attribute's
// statistics: the export takes the sorted set the table kept
// (relstore.Table.DistinctCanonical) and stages it as it is, with no
// second sort. Attributes are independent — each stages its own set
// under its own key — so they are exported on relstore.Parallel's
// GOMAXPROCS-wide pool; GOMAXPROCS=1 gives the paper's sequential
// export.
func ExportAttributes(db *relstore.Database, attrs []*Attribute, cfg ExportConfig) error {
	if err := requireDataset(cfg.Dataset, "ExportConfig.Dataset"); err != nil {
		return err
	}
	return relstore.Parallel(len(attrs), func(i int) error {
		return exportAttribute(db, attrs[i], cfg)
	})
}

// exportAttribute stages one attribute's sorted value set into
// cfg.Dataset, deriving and persisting its sketch in the same pass when
// configured.
func exportAttribute(db *relstore.Database, a *Attribute, cfg ExportConfig) error {
	vals, err := distinctValues(db, a)
	if err != nil {
		return err
	}
	// The sketch taps the staged stream rather than the raw column scan:
	// each distinct value is observed exactly once, so the builder does
	// per-distinct work instead of per-row work. The finished sketch is
	// staged as a section of the value set itself: block files embed it,
	// memory datasets keep the payload in their section map.
	builder, observe := sketchObserver(cfg, a)
	var sections func(store.ValueWriter) error
	if builder != nil {
		sections = func(w store.ValueWriter) error {
			a.Sketch = builder.Finish()
			var buf bytes.Buffer
			if err := a.Sketch.Encode(&buf); err != nil {
				return err
			}
			return w.SetSection(valfile.SketchSection, buf.Bytes())
		}
	}
	n, max, err := stageSorted(cfg.Dataset, a, attrFileName(a), vals, int64(a.NonNull), observe, sections)
	if err != nil {
		return err
	}
	if n != a.Distinct {
		return fmt.Errorf("ind: %s: exported %d distinct values, stats say %d", a.Ref, n, a.Distinct)
	}
	a.MaxCanonical = max
	return nil
}

// stageSorted writes vals, which must be sorted and distinct, into ds
// under key through Create and points a at it — the one way a sorted
// value set enters a dataset. observe (may be nil) sees every value in
// order, the run metadata (added is the number of values vals was
// deduplicated from) rides along as a section, and sections (may be nil)
// attaches further sections once the stream is complete. On error the
// key is removed. It returns the distinct count and the maximum value
// ("" when empty).
func stageSorted(ds store.Dataset, a *Attribute, key string, vals []string, added int64, observe func(string), sections func(store.ValueWriter) error) (n int, max string, err error) {
	w, err := ds.Create(key)
	if err != nil {
		return 0, "", err
	}
	for _, v := range vals {
		if observe != nil {
			observe(v)
		}
		if err := w.Append(v); err != nil {
			return 0, "", abortStaging(ds, key, w, err)
		}
	}
	if err := w.SetSection(valfile.RunMetaSection, valfile.RunMeta{Added: added}.Encode()); err != nil {
		return 0, "", abortStaging(ds, key, w, err)
	}
	if sections != nil {
		if err := sections(w); err != nil {
			return 0, "", abortStaging(ds, key, w, err)
		}
	}
	n = w.Len()
	if err := w.Close(); err != nil {
		_ = ds.Remove(key) // best effort: the key may never have become visible
		return 0, "", err
	}
	a.Key = key
	if len(vals) > 0 {
		max = vals[len(vals)-1]
	}
	return n, max, nil
}

// abortStaging closes a failed staging writer and removes whatever of
// the key became visible, returning err.
func abortStaging(ds store.Dataset, key string, w store.ValueWriter, err error) error {
	w.Close()
	_ = ds.Remove(key) // best effort: the key may never have become visible
	return err
}

// LoadSketches fills Attribute.Sketch from the sketches persisted in
// ds: the SketchSection staged next to each value set (embedded in
// block value files, in the section map of memory datasets); ds is required. Attributes without an
// exported value set or without a persisted sketch are skipped; a
// present but unreadable sketch is an error.
func LoadSketches(ds store.Dataset, attrs []*Attribute) error {
	if err := requireDataset(ds, "LoadSketches"); err != nil {
		return err
	}
	for _, a := range attrs {
		if a.Sketch != nil || a.Key == "" {
			continue
		}
		data, ok, err := ds.Section(a.Key, valfile.SketchSection)
		if err != nil {
			return fmt.Errorf("ind: %s: %w", a.Ref, err)
		}
		if !ok {
			continue
		}
		s, err := sketch.Decode(data)
		if err != nil {
			return fmt.Errorf("ind: %s: persisted sketch: %w", a.Ref, err)
		}
		a.Sketch = s
	}
	return nil
}

// distinctValues returns the attribute's sorted distinct canonical
// values, the set its table's column pass made.
func distinctValues(db *relstore.Database, a *Attribute) ([]string, error) {
	t := db.Table(a.Ref.Table)
	if t == nil {
		return nil, fmt.Errorf("ind: unknown table %q", a.Ref.Table)
	}
	return t.DistinctCanonical(a.Ref.Column)
}

// sketchObserver returns a builder and its observe function when cfg
// asks for sketches, or (nil, nil) otherwise.
func sketchObserver(cfg ExportConfig, a *Attribute) (*sketch.Builder, func(string)) {
	if !cfg.Sketches {
		return nil, nil
	}
	b := sketch.NewBuilder(cfg.SketchConfig, a.Distinct)
	return b, b.Add
}

// attrFileName builds a stable, filesystem-safe file name for an attribute.
func attrFileName(a *Attribute) string {
	sanitize := func(s string) string {
		var b strings.Builder
		for _, r := range s {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
				b.WriteRune(r)
			default:
				b.WriteByte('_')
			}
		}
		return b.String()
	}
	return fmt.Sprintf("%05d_%s_%s.val", a.ID, sanitize(a.Ref.Table), sanitize(a.Ref.Column))
}

// Prepare is the common preamble of the order-based algorithms: collect
// attributes and export their sorted value sets into cfg.Dataset.
func Prepare(db *relstore.Database, cfg ExportConfig) ([]*Attribute, error) {
	attrs, err := CollectAttributes(db)
	if err != nil {
		return nil, err
	}
	if err := ExportAttributes(db, attrs, cfg); err != nil {
		return nil, err
	}
	return attrs, nil
}
