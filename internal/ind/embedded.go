package ind

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"spider/internal/extsort"
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
	// attribute and decides every candidate in a single (optionally
	// sharded) SpiderMerge heap merge: each referenced file is read at
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
	// Dir receives the derived sorted value files (and the sorter's
	// spill runs); required unless Scratch is set.
	Dir string
	// Scratch receives the derived value sets; nil selects a filesystem
	// dataset rooted at Dir, reproducing the historical on-disk layout.
	Scratch store.Dataset
	// Store serves the original attributes' value sets to the engines
	// when set; nil reads the exported value files by path.
	Store store.Dataset
	// MinValues skips derived sets smaller than this (default 2):
	// near-empty derived sets satisfy almost any inclusion and are noise.
	MinValues int
	// Counter receives every item read; nil disables external counting.
	Counter *valfile.ReadCounter
	// Algorithm selects the engine: EmbeddedAlgorithmOne (the default,
	// one merge pass per candidate) or EmbeddedMerge (all candidates in
	// one shared heap merge). Results are identical.
	Algorithm EmbeddedEngine
	// Shards (EmbeddedMerge only) partitions the canonical value space
	// into that many disjoint ranges merged concurrently; 0 or 1 keeps
	// the single merge. Output is identical at any shard count.
	Shards int
	// Format selects the encoding of the derived value files.
	Format valfile.Format
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
	var b strings.Builder
	appendEscaped(&b, orig.Column)
	b.WriteByte(0)
	appendEscaped(&b, transform)
	return relstore.ColumnRef{Table: orig.Table, Column: b.String()}
}

// FindEmbedded tests whether transformed dependent values are included in
// referenced attributes. Exact INDs (identity transform) are not
// re-tested; combine with BruteForce for the full picture.
func FindEmbedded(db *relstore.Database, attrs []*Attribute, opts EmbeddedOptions) (*EmbeddedResult, error) {
	if opts.Dir == "" && opts.Scratch == nil {
		return nil, fmt.Errorf("ind: EmbeddedOptions.Dir or Scratch is required")
	}
	if opts.Shards > 1 && opts.Algorithm != EmbeddedMerge {
		return nil, fmt.Errorf("ind: Shards require the EmbeddedMerge engine, not %v", opts.Algorithm)
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, err
		}
	}
	scratch := opts.Scratch
	if scratch == nil {
		scratch = store.NewFS(opts.Dir, opts.Format)
	}
	if len(opts.Transforms) == 0 {
		opts.Transforms = StandardTransforms()
	}
	if opts.MinValues <= 0 {
		opts.MinValues = 2
	}
	start := time.Now()
	res := &EmbeddedResult{}

	deriveds, err := deriveAttributes(db, attrs, opts, scratch)
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
			if r.StoreKey() == "" {
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
		mres, err := SpiderMerge(pairs, SpiderMergeOptions{Counter: opts.Counter, Store: opts.Store, Shards: opts.Shards})
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
		src := newSource(opts.Store, opts.Counter)
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
	res.Stats.ItemsRead = totalRead(opts.Counter)
	res.Stats.BytesRead = totalBytes(opts.Counter)
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
// can share one merge.
func deriveAttributes(db *relstore.Database, attrs []*Attribute, opts EmbeddedOptions, scratch store.Dataset) ([]derivedAttr, error) {
	nextID := 0
	for _, a := range attrs {
		nextID = maxInt(nextID, a.ID+1)
	}
	var deriveds []derivedAttr
	for _, a := range attrs {
		if !a.DependentCandidate() || a.Kind != value.String {
			continue
		}
		tab := db.Table(a.Ref.Table)
		if tab == nil {
			return nil, fmt.Errorf("ind: unknown table %q", a.Ref.Table)
		}
		for _, tr := range opts.Transforms {
			sorter := extsort.New(extsort.Config{TempDir: opts.Dir, Format: opts.Format})
			var addErr error
			min, seen := "", false
			if _, err := tab.ScanColumn(a.Ref.Column, func(v value.Value) {
				if addErr != nil || v.IsNull() {
					return
				}
				if out := tr.Apply(v.Canonical()); out != "" {
					if !seen || out < min {
						min, seen = out, true
					}
					addErr = sorter.Add(out)
				}
			}); err != nil {
				sorter.Discard()
				return nil, err
			}
			if addErr != nil {
				sorter.Discard()
				return nil, addErr
			}
			derived := &Attribute{
				ID:           nextID,
				Ref:          derivedRef(a.Ref, tr.Name),
				Kind:         a.Kind,
				MinCanonical: min,
			}
			key := fmt.Sprintf("derived_%05d_%s.val", nextID, tr.Name)
			n, max, err := stageSorted(scratch, derived, key, sorter, nil, nil)
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
