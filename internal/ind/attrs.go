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
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"spider/internal/extsort"
	"spider/internal/relstore"
	"spider/internal/sketch"
	"spider/internal/store"
	"spider/internal/valfile"
	"spider/internal/value"
)

// Attribute is one column prepared for IND testing: its identity, the
// statistics the pretests need, and (after export) the sorted distinct
// value file the order-based algorithms traverse.
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
	// Path is the sorted distinct value file, "" until exported to a
	// filesystem dataset (other backends leave it empty).
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

// StoreKey returns the dataset key under which the attribute's sorted
// distinct value set is readable: the value-file path when one exists
// (resolved verbatim by filesystem datasets, whatever their root) or
// the staging key of a non-file backend. "" means not exported yet.
func (a *Attribute) StoreKey() string {
	if a.Path != "" {
		return a.Path
	}
	return a.Key
}

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
	// Dataset receives the staged value sets. nil selects a filesystem
	// dataset rooted at Dir in the configured Format — the historical
	// files-on-disk layout.
	Dataset store.Dataset
	// Dir receives one value file per attribute when Dataset is nil.
	Dir string
	// Sort is not read: column exports stage the sorted set relstore
	// made in memory, with no external sort. The field stays for the
	// callers that still set it.
	Sort extsort.Config
	// Workers bounds the export worker pool. Attributes are independent —
	// each worker stages its own column's set into its own file — so
	// extraction scales with cores. Zero or one exports sequentially.
	Workers int
	// Sketches additionally builds each attribute's pre-filter sketch
	// (KMV min-hash signature + partitioned bloom filter) in the same
	// streaming pass, observing each distinct value once as it is
	// staged. The sketch is persisted as a section of the value set
	// (a sketch.FileSuffix sidecar next to text value files).
	Sketches bool
	// SketchConfig sizes the sketches; the zero value selects the
	// sketch package defaults.
	SketchConfig sketch.Config
	// Format selects the value-file encoding. The zero value is the
	// text format. Block-format exports embed the sketch inside the
	// value file instead of writing a sidecar, so one attribute is one
	// file open.
	Format valfile.Format
}

// ExportAttributes stages each attribute's sorted distinct value set
// into cfg.Dataset (value files in cfg.Dir when it is nil) and fills
// Attribute.Key and Attribute.Path. This is the paper's extraction step:
// "All value sets are extracted from the database and stored in sorted
// files" (Sec 3.2), with the sort performed once per attribute rather than
// once per IND test — the first optimization of Sec 1.2. The sort is the
// column pass that computed the attribute's statistics: the export takes
// the sorted set the table kept (relstore.Table.DistinctCanonical) and
// stages it as it is, with no external sort and no spill runs. With
// cfg.Workers > 1 the attributes are exported by a bounded worker pool.
func ExportAttributes(db *relstore.Database, attrs []*Attribute, cfg ExportConfig) error {
	ds := cfg.Dataset
	if ds == nil {
		if cfg.Dir == "" {
			return fmt.Errorf("ind: ExportConfig.Dir is required")
		}
		ds = store.NewFS(cfg.Dir, cfg.Format)
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return fmt.Errorf("ind: %w", err)
		}
	}
	return forEachAttribute(attrs, cfg.Workers, func(a *Attribute) error {
		return exportAttribute(db, a, cfg, ds)
	})
}

// forEachAttribute applies fn to every attribute on a pool of at most
// workers goroutines (sequentially when workers <= 1), returning the
// first error. fn runs at most once per attribute; later work is skipped
// after a failure.
func forEachAttribute(attrs []*Attribute, workers int, fn func(*Attribute) error) error {
	if workers > len(attrs) {
		workers = len(attrs)
	}
	if workers <= 1 {
		for _, a := range attrs {
			if err := fn(a); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		failed   atomic.Bool
		errMu    sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(attrs) || failed.Load() {
					return
				}
				if err := fn(attrs[i]); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// exportAttribute stages one attribute's sorted value set into ds,
// deriving and persisting its sketch in the same pass when configured.
func exportAttribute(db *relstore.Database, a *Attribute, cfg ExportConfig, ds store.Dataset) error {
	vals, err := distinctValues(db, a)
	if err != nil {
		return err
	}
	sorter := extsort.Presorted(vals, int64(a.NonNull))
	// The sketch taps the staged stream rather than the raw column scan:
	// each distinct value is observed exactly once, so the builder does
	// per-distinct work instead of per-row work. The finished sketch is
	// staged as a section of the value set itself: block files embed it,
	// text files persist the byte-identical sidecar, memory and spill
	// datasets keep the payload in their section map.
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
	n, max, err := stageSorted(ds, a, attrFileName(a), sorter, observe, sections)
	if err != nil {
		return err
	}
	if n != a.Distinct {
		return fmt.Errorf("ind: %s: exported %d distinct values, stats say %d", a.Ref, n, a.Distinct)
	}
	a.MaxCanonical = max
	return nil
}

// stageSorted finishes sorter into ds under key and points a at it —
// the one way a sorted value set enters a dataset. A spill dataset
// adopts the frozen runs in place; every other backend receives the
// drained stream through Create. Either way observe (may be nil) sees
// every distinct value in sorted order, the run metadata rides along as
// a section (backends that cannot carry it, like the text encoding,
// drop it), and sections (may be nil) attaches further sections once
// the stream is complete. On error nothing stays behind: the key is
// removed and the sorter's spill runs are reclaimed. It returns the
// distinct count and the maximum value ("" when empty).
func stageSorted(ds store.Dataset, a *Attribute, key string, sorter *extsort.Sorter, observe func(string), sections func(store.ValueWriter) error) (n int, max string, err error) {
	defer sorter.Discard() // no-op once drained or frozen; reclaims runs on early error
	var (
		w    store.ValueWriter
		meta extsort.RunMeta
	)
	if sp, ok := ds.(*extsort.Spill); ok {
		if w, max, meta, err = sp.Stage(key, sorter, observe); err != nil {
			return 0, "", err
		}
	} else {
		if w, err = ds.Create(key); err != nil {
			return 0, "", err
		}
		if _, max, meta, err = sorter.DrainTo(w, observe); err != nil {
			return 0, "", abortStaging(ds, key, w, err)
		}
	}
	if err := w.SetSection(valfile.RunMetaSection, meta.Encode()); err != nil {
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
	a.Key, a.Path = key, ""
	if fs, ok := ds.(*store.FS); ok {
		a.Path = fs.Path(key)
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
// block-format value files, sidecars next to text files, the section
// map of memory datasets). A nil ds resolves Attribute.Path verbatim —
// the files-on-disk default. Attributes without an exported value set
// or without a persisted sketch are skipped; a present but unreadable
// sketch is an error.
func LoadSketches(ds store.Dataset, attrs []*Attribute) error {
	if ds == nil {
		ds = pathFS
	}
	for _, a := range attrs {
		if a.Sketch != nil {
			continue
		}
		key := a.StoreKey()
		if key == "" {
			continue
		}
		data, ok, err := ds.Section(key, valfile.SketchSection)
		if err != nil {
			return fmt.Errorf("ind: %s: %w", a.Ref, err)
		}
		if !ok {
			continue
		}
		s, err := sketch.Decode(bytes.NewReader(data))
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
// attributes and export their sorted value files.
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
