package ind

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"spider/internal/relstore"
	"spider/internal/store"
	"spider/internal/valfile"
	"spider/internal/value"
)

// The paper's Sec 7 outlook: "we plan [to] use this procedure to identify
// inclusion dependencies ... between concatenated values, e.g. attributes
// containing PDB codes as '144f' or as 'PDB-144f'." This file implements
// that extension: a set of value transforms is applied to dependent
// attributes, producing derived value sets whose inclusion in the
// referenced attributes is tested with the ordinary machinery — either
// one Algorithm 1 pass per candidate (the reference engine), or all
// candidates at once on the shared k-way merge front, where each derived
// set is just one more synthetic attribute in the heap.

// Transform rewrites a value before the inclusion test. Empty results are
// dropped (they correspond to NULLs).
type Transform struct {
	// Name identifies the transform in results, e.g. "after-dash".
	Name string
	// Apply rewrites one canonical value.
	Apply func(string) string
}

// StandardTransforms are the transforms motivated by the paper's example:
// extracting an embedded code after or before a separator, and
// case-folding.
func StandardTransforms() []Transform {
	return []Transform{
		{Name: "after-dash", Apply: func(s string) string {
			if i := strings.LastIndexByte(s, '-'); i >= 0 {
				return s[i+1:]
			}
			return ""
		}},
		{Name: "before-dash", Apply: func(s string) string {
			if i := strings.IndexByte(s, '-'); i >= 0 {
				return s[:i]
			}
			return ""
		}},
		{Name: "lowercase", Apply: func(s string) string {
			l := strings.ToLower(s)
			if l == s {
				return "" // identity adds nothing over the exact test
			}
			return l
		}},
	}
}

// EmbeddedIND is a satisfied inclusion between a transformed dependent
// attribute and a referenced attribute.
type EmbeddedIND struct {
	Dep       relstore.ColumnRef
	Transform string
	Ref       relstore.ColumnRef
}

// String renders the embedded IND, e.g. "entry.code[after-dash] ⊆ struct.id".
func (e EmbeddedIND) String() string {
	return fmt.Sprintf("%s[%s] ⊆ %s", e.Dep, e.Transform, e.Ref)
}

// EmbeddedEngine selects the verification engine of FindEmbedded.
type EmbeddedEngine int

const (
	// EmbeddedAlgorithmOne tests each derived candidate with its own
	// Algorithm 1 pass over the two sorted files — the reference engine.
	// Referenced files are re-read once per candidate.
	EmbeddedAlgorithmOne EmbeddedEngine = iota
	// EmbeddedMerge materialises each derived value set as one synthetic
	// attribute and decides every candidate in a single SpiderMerge heap
	// merge: each referenced file is read at
	// most once regardless of how many derived sets test against it.
	EmbeddedMerge
)

// String names the engine.
func (e EmbeddedEngine) String() string {
	switch e {
	case EmbeddedAlgorithmOne:
		return "algorithm-one"
	case EmbeddedMerge:
		return "merge"
	default:
		return fmt.Sprintf("EmbeddedEngine(%d)", int(e))
	}
}

// EmbeddedOptions tunes FindEmbedded.
type EmbeddedOptions struct {
	// Transforms to try; StandardTransforms() when empty.
	Transforms []Transform
	// Scratch receives the derived value sets, under keys that never
	// collide with the attributes' own; Store serves both the
	// attributes' and the derived value sets to the engines. They
	// differ only when the dataset is split into a writable side and a
	// read-only view (the snapshot shape). Both are required.
	Scratch store.Dataset
	Store   store.Dataset
	// MinValues skips derived sets smaller than this (default 2):
	// near-empty derived sets satisfy almost any inclusion and are noise.
	MinValues int
	// Counter receives every item read; nil disables external counting.
	Counter *valfile.ReadCounter
	// Algorithm selects the engine: EmbeddedAlgorithmOne (the default,
	// one merge pass per candidate) or EmbeddedMerge (all candidates in
	// one shared heap merge). Results are identical.
	Algorithm EmbeddedEngine
}

// EmbeddedResult is the outcome of FindEmbedded.
type EmbeddedResult struct {
	Satisfied []EmbeddedIND
	// DerivedAttrs counts the derived value sets that were exported.
	DerivedAttrs int
	Stats        Stats
}

// derivedAttr is one exported (dependent attribute, transform) value set
// with the synthetic attribute the engines consume.
type derivedAttr struct {
	attr      *Attribute
	orig      relstore.ColumnRef
	transform string
}

// derivedRef tags a derived attribute's synthetic identity: the original
// column name and the transform name joined injectively, so two
// transforms of one column (or a transform name containing separator
// bytes) never conflate inside a shared merge.
func derivedRef(orig relstore.ColumnRef, transform string) relstore.ColumnRef {
	b := appendEscaped(nil, orig.Column)
	b = appendEscaped(append(b, 0), transform)
	return relstore.ColumnRef{Table: orig.Table, Column: string(b)}
}

// FindEmbedded tests whether transformed dependent values are included in
// referenced attributes. Exact INDs (identity transform) are not
// re-tested; combine with BruteForce for the full picture.
func FindEmbedded(db *relstore.Database, attrs []*Attribute, opts EmbeddedOptions) (*EmbeddedResult, error) {
	if err := requireDataset(opts.Scratch, "EmbeddedOptions.Scratch"); err != nil {
		return nil, err
	}
	src, err := newSource(opts.Store, opts.Counter)
	if err != nil {
		return nil, err
	}
	if len(opts.Transforms) == 0 {
		opts.Transforms = StandardTransforms()
	}
	if opts.MinValues <= 0 {
		opts.MinValues = 2
	}
	start := time.Now()
	res := &EmbeddedResult{}

	deriveds, err := deriveAttributes(db, attrs, opts)
	if err != nil {
		return nil, err
	}
	res.DerivedAttrs = len(deriveds)

	// Candidates: derived dependent sets against original referenced
	// attributes (which must already be exported).
	type embCand struct {
		d *derivedAttr
		r *Attribute
	}
	var cands []embCand
	for i := range deriveds {
		d := &deriveds[i]
		for _, r := range attrs {
			if !r.ReferencedCandidate() || r.Ref == d.orig {
				continue
			}
			if d.attr.Distinct > r.Distinct {
				continue
			}
			if r.Key == "" {
				return nil, fmt.Errorf("ind: referenced attribute %s not exported", r.Ref)
			}
			cands = append(cands, embCand{d: d, r: r})
		}
	}

	if opts.Algorithm == EmbeddedMerge {
		byRef := make(map[relstore.ColumnRef]*derivedAttr, len(deriveds))
		for i := range deriveds {
			byRef[deriveds[i].attr.Ref] = &deriveds[i]
		}
		pairs := make([]Candidate, len(cands))
		for i, c := range cands {
			pairs[i] = Candidate{Dep: c.d.attr, Ref: c.r}
		}
		mres, err := SpiderMerge(pairs, SpiderMergeOptions{Counter: opts.Counter, Store: opts.Store})
		if err != nil {
			return nil, err
		}
		res.Stats = mres.Stats
		for _, m := range mres.Satisfied {
			d := byRef[m.Dep]
			res.Satisfied = append(res.Satisfied, EmbeddedIND{
				Dep: d.orig, Transform: d.transform, Ref: m.Ref,
			})
		}
	} else {
		for _, c := range cands {
			sat, err := testCandidate(Candidate{Dep: c.d.attr, Ref: c.r}, src, &res.Stats)
			if err != nil {
				return nil, err
			}
			res.Stats.Candidates++
			if sat {
				res.Satisfied = append(res.Satisfied, EmbeddedIND{
					Dep: c.d.orig, Transform: c.d.transform, Ref: c.r.Ref,
				})
			}
		}
	}
	sortEmbedded(res.Satisfied)
	res.Stats.Satisfied = len(res.Satisfied)
	res.Stats.ItemsRead = opts.Counter.Total()
	res.Stats.BytesRead = opts.Counter.TotalBytes()
	res.Stats.Duration = time.Since(start)
	return res, nil
}

// sortEmbedded orders embedded INDs canonically, so both engines emit
// byte-identical result slices.
func sortEmbedded(inds []EmbeddedIND) {
	sort.Slice(inds, func(i, j int) bool {
		if inds[i].Dep != inds[j].Dep {
			return inds[i].Dep.String() < inds[j].Dep.String()
		}
		if inds[i].Transform != inds[j].Transform {
			return inds[i].Transform < inds[j].Transform
		}
		return inds[i].Ref.String() < inds[j].Ref.String()
	})
}

// deriveAttributes exports one sorted distinct value set per (dependent
// attribute, transform) with a non-trivial result set into the scratch
// dataset, returning the synthetic attributes both engines consume.
// Attribute IDs continue past the originals', so deriveds and originals
// can share one merge. Each set is built the way the column pass builds
// a column's: the transform's results are collected into one reused
// slice, sorted and deduplicated in place by relstore.SortDistinct,
// and staged.
func deriveAttributes(db *relstore.Database, attrs []*Attribute, opts EmbeddedOptions) ([]derivedAttr, error) {
	scratch := opts.Scratch
	nextID := 0
	for _, a := range attrs {
		nextID = maxInt(nextID, a.ID+1)
	}
	var (
		deriveds []derivedAttr
		vals     []string // staging copies the values out, so one buffer serves every set
	)
	for _, a := range attrs {
		if !a.DependentCandidate() || a.Kind != value.String {
			continue
		}
		tab := db.Table(a.Ref.Table)
		if tab == nil {
			return nil, fmt.Errorf("ind: unknown table %q", a.Ref.Table)
		}
		for _, tr := range opts.Transforms {
			vals = vals[:0]
			if _, err := tab.ScanColumn(a.Ref.Column, func(v value.Value) {
				if v.IsNull() {
					return
				}
				if out := tr.Apply(v.Canonical()); out != "" {
					vals = append(vals, out)
				}
			}); err != nil {
				return nil, err
			}
			added := int64(len(vals))
			vals = relstore.SortDistinct(vals)
			derived := &Attribute{
				ID:   nextID,
				Ref:  derivedRef(a.Ref, tr.Name),
				Kind: a.Kind,
			}
			key := fmt.Sprintf("derived_%05d_%s.val", nextID, tr.Name)
			n, max, err := stageSorted(scratch, derived, key, vals, added, nil, nil)
			if err != nil {
				return nil, err
			}
			if n < opts.MinValues {
				if err := scratch.Remove(key); err != nil {
					return nil, err
				}
				continue
			}
			derived.NonNull, derived.Distinct, derived.MaxCanonical = n, n, max
			deriveds = append(deriveds, derivedAttr{
				attr:      derived,
				orig:      a.Ref,
				transform: tr.Name,
			})
			nextID++
		}
	}
	return deriveds, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
