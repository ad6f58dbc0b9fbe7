package serve

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"spider/internal/ind"
	"spider/internal/store"
	"spider/internal/valfile"
)

// DefaultResultsName is the result-set file a dataset directory is
// probed for when DatasetSpec.Results is empty — the name indfind -out
// conventionally writes next to the exported value files.
const DefaultResultsName = "INDS.json"

// DatasetSpec names one dataset to load from disk: a directory of
// exported block value files (sketches embedded; text exports convert
// with valconvert -format block -dir) plus the result set persisted by
// the batch run. Loading copies every value set into memory once;
// requests never touch the directory.
type DatasetSpec struct {
	// Name is the dataset's serving name; empty defaults to the
	// directory's base name.
	Name string
	// Dir holds the exported value files.
	Dir string
	// Results is the result-set path; empty defaults to
	// Dir/INDS.json.
	Results string
	// Deprecated: no effect; perfbench/serving.go still sets it.
	Preload bool
}

// name resolves the serving name.
func (sp DatasetSpec) name() string {
	if sp.Name != "" {
		return sp.Name
	}
	return filepath.Base(sp.Dir)
}

// results resolves the result-set path.
func (sp DatasetSpec) results() string {
	if sp.Results != "" {
		return sp.Results
	}
	return filepath.Join(sp.Dir, DefaultResultsName)
}

// Source is one dataset ready to stage: any base store plus the parsed
// result set describing what it holds. Specs resolve to Sources by
// opening the directory; tests build Sources over in-memory stores
// directly.
type Source struct {
	Name    string
	Base    store.Dataset
	Results *ind.ResultSet
}

// Dataset is one loaded dataset: a read-only view of its value sets,
// the reconstructed attribute catalog (sketches included, where
// persisted), and the batch run's verdicts.
type Dataset struct {
	Name      string
	Algorithm string
	Snap      *store.Snapshot
	Attrs     []*ind.Attribute
	INDs      []ind.IND

	byName    map[string]*ind.Attribute
	satisfied map[[2]int]bool
}

// Attr resolves a table.column name.
func (d *Dataset) Attr(name string) (*ind.Attribute, bool) {
	a, ok := d.byName[name]
	return a, ok
}

// Discovered reports whether dep ⊆ ref is in the loaded verdict set.
func (d *Dataset) Discovered(dep, ref *ind.Attribute) bool {
	return d.satisfied[[2]int{dep.ID, ref.ID}]
}

// State is one immutable serving generation: every loaded dataset plus
// the response cache scoped to it. Requests resolve the current State
// exactly once, so a concurrent swap can never show them half of one
// generation and half of another; the cache dies with its State, which
// is what makes reloads correct without invalidation bookkeeping.
type State struct {
	Generation int
	LoadedAt   time.Time

	datasets map[string]*Dataset
	names    []string
	cache    *lru
}

// Dataset resolves a dataset by name. An empty name resolves iff
// exactly one dataset is loaded.
func (st *State) Dataset(name string) (*Dataset, bool) {
	if name == "" && len(st.names) == 1 {
		name = st.names[0]
	}
	d, ok := st.datasets[name]
	return d, ok
}

// Names lists the loaded dataset names, sorted.
func (st *State) Names() []string { return st.names }

// LoadState resolves specs against the filesystem and stages every
// dataset into a fresh State: one store.Mem per dataset, one
// read-only Snapshot view over it, catalog and verdicts from the result
// set. It is the reload path — the old State keeps serving until the
// returned one is swapped in.
func LoadState(specs []DatasetSpec, generation, cacheSize int) (*State, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("serve: no datasets configured")
	}
	sources := make([]Source, 0, len(specs))
	for _, sp := range specs {
		rs, err := ind.ReadResultSetFile(sp.results())
		if err != nil {
			return nil, fmt.Errorf("serve: dataset %s: %w", sp.name(), err)
		}
		sources = append(sources, Source{
			Name:    sp.name(),
			Base:    store.NewFS(sp.Dir),
			Results: rs,
		})
	}
	return BuildState(sources, generation, cacheSize)
}

// BuildState stages every source into a new State.
func BuildState(sources []Source, generation, cacheSize int) (*State, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("serve: no datasets configured")
	}
	st := &State{
		Generation: generation,
		LoadedAt:   time.Now(),
		datasets:   make(map[string]*Dataset, len(sources)),
		cache:      newLRU(cacheSize),
	}
	for _, src := range sources {
		if _, dup := st.datasets[src.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate dataset name %q", src.Name)
		}
		d, err := stageDataset(src)
		if err != nil {
			return nil, fmt.Errorf("serve: dataset %s: %w", src.Name, err)
		}
		st.datasets[src.Name] = d
		st.names = append(st.names, src.Name)
	}
	sort.Strings(st.names)
	return st, nil
}

// stageDataset copies one source's value sets (and their persisted
// sections) into an in-memory dataset, the only copy the server holds,
// puts a read-only view over it, and rebuilds the catalog. Staging
// validates the result set against the data: a value set whose
// cardinality disagrees with the persisted catalog is an error, not a
// silently wrong answer at query time.
func stageDataset(src Source) (*Dataset, error) {
	attrs, err := src.Results.Attributes()
	if err != nil {
		return nil, err
	}
	mem := store.NewMem()
	for _, a := range attrs {
		if err := stageKey(src.Base, mem, a); err != nil {
			return nil, err
		}
	}
	snap := store.NewSnapshot(mem)
	if err := ind.LoadSketches(snap, attrs); err != nil {
		return nil, err
	}
	d := &Dataset{
		Name:      src.Name,
		Algorithm: src.Results.Algorithm,
		Snap:      snap,
		Attrs:     attrs,
		INDs:      src.Results.INDList(attrs),
		byName:    make(map[string]*ind.Attribute, len(attrs)),
		satisfied: make(map[[2]int]bool, len(src.Results.INDs)),
	}
	for _, a := range attrs {
		d.byName[a.Ref.String()] = a
	}
	for _, p := range src.Results.INDs {
		d.satisfied[p] = true
	}
	return d, nil
}

// stageKey copies one attribute's sorted distinct values and sketch
// section from base into mem.
func stageKey(base store.Dataset, mem *store.Mem, a *ind.Attribute) error {
	key := a.Key
	cur, err := base.Open(key, nil)
	if err != nil {
		return fmt.Errorf("%s: %w", a.Ref, err)
	}
	defer cur.Close()
	w, err := mem.Create(key)
	if err != nil {
		return fmt.Errorf("%s: %w", a.Ref, err)
	}
	n := 0
	for {
		v, ok := cur.Next()
		if !ok {
			break
		}
		if err := w.Append(v); err != nil {
			w.Close()
			return fmt.Errorf("%s: %w", a.Ref, err)
		}
		n++
	}
	if err := cur.Err(); err != nil {
		w.Close()
		return fmt.Errorf("%s: %w", a.Ref, err)
	}
	if n != a.Distinct {
		w.Close()
		return fmt.Errorf("%s: value set holds %d values, result set says %d — stale result set?", a.Ref, n, a.Distinct)
	}
	if data, ok, err := base.Section(key, valfile.SketchSection); err != nil {
		w.Close()
		return fmt.Errorf("%s: %w", a.Ref, err)
	} else if ok {
		if err := w.SetSection(valfile.SketchSection, data); err != nil {
			w.Close()
			return fmt.Errorf("%s: %w", a.Ref, err)
		}
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("%s: %w", a.Ref, err)
	}
	return nil
}
