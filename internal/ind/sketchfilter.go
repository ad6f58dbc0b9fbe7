package ind

import (
	"spider/internal/relstore"
	"spider/internal/sketch"
)

// This file wires the internal/sketch summaries into candidate
// generation: the sketch pre-filter drops a candidate pair before it
// ever touches a merge front, value file, or SQL statement.
//
// Two pruning rules run per candidate d ⊆ r, both from the same probe of
// d's KMV minima (hashes of k actual dependent values) against r's bloom
// filter (which covers every referenced value):
//
//  1. Definite refutation — SOUND for exact INDs: a bloom filter has no
//     false negatives, so a probe miss proves a dependent value absent
//     from the referenced attribute. One such value refutes d ⊆ r
//     outright. At default settings this is the only rule applied on the
//     exact path, so the IND output is byte-identical with and without
//     the pre-filter; only refuted candidates are skipped.
//  2. Containment cut-off — APPROXIMATE: the probe hit fraction
//     estimates |s(d) ∩ s(r)| / |s(d)|; candidates estimated below
//     MinContainment are dropped. This is the Dasu et al. resemblance
//     reduction (Sec 6), useful when callers accept a small
//     false-prune risk or on the partial/σ path where rule 1 does not
//     apply (a handful of missing values refutes only the exact IND).
//
// The equivalent of rule 1 for partial INDs would need the definite-miss
// count of ALL dependent values, not a k-sample, so the partial path
// only ever applies rule 2 — and only at an explicitly requested σ.

// SketchPretestOptions tunes the sketch pre-filter.
type SketchPretestOptions struct {
	// ExactRefutation applies rule 1: any definite bloom miss prunes.
	// Sound for exact IND discovery, unsound for partial INDs (set it
	// false there).
	ExactRefutation bool
	// MinContainment, when in (0, 1], additionally prunes candidates
	// whose estimated containment falls below it (rule 2,
	// approximate). Zero disables the cut-off.
	MinContainment float64
}

// SketchPretestStats reports the pre-filter's effect.
type SketchPretestStats struct {
	// Candidates is the number of pairs inspected.
	Candidates int
	// Pruned pairs were dropped: PrunedDefinite by a sound bloom
	// refutation, PrunedEstimate by the containment cut-off.
	Pruned         int
	PrunedDefinite int
	PrunedEstimate int
	// Skipped pairs had no sketch on one side and passed through.
	Skipped int
	// SketchBytes totals the in-memory size of the distinct sketches
	// consulted.
	SketchBytes int64
}

// SketchPretest filters cands using the attributes' sketches. Candidates
// whose attributes have no sketch pass through untouched, so the
// pre-filter composes with any extraction path. The input slice is not
// modified.
func SketchPretest(cands []Candidate, opts SketchPretestOptions) ([]Candidate, SketchPretestStats) {
	var st SketchPretestStats
	st.Candidates = len(cands)
	seen := make(map[int]struct{})
	account := func(a *Attribute) {
		if a.Sketch == nil {
			return
		}
		if _, ok := seen[a.ID]; ok {
			return
		}
		seen[a.ID] = struct{}{}
		st.SketchBytes += a.Sketch.Bytes()
	}
	out := cands[:0:0]
	for _, c := range cands {
		account(c.Dep)
		account(c.Ref)
		if c.Dep.Sketch == nil || c.Ref.Sketch == nil {
			st.Skipped++
			out = append(out, c)
			continue
		}
		res := sketch.Probe(c.Dep.Sketch, c.Ref.Sketch)
		if opts.ExactRefutation && res.DefiniteMisses() > 0 {
			st.Pruned++
			st.PrunedDefinite++
			continue
		}
		if opts.MinContainment > 0 && res.Containment() < opts.MinContainment {
			st.Pruned++
			st.PrunedEstimate++
			continue
		}
		out = append(out, c)
	}
	return out, st
}

// BuildAttributeSketches fills Attribute.Sketch from each attribute's
// sorted distinct values — the fallback for paths that never export
// value files (the SQL and in-memory engines). It takes the set the
// column pass made, as an export does, and observes each distinct value
// once, on the same pool as ExportAttributes. Attributes that already
// carry a sketch are skipped.
func BuildAttributeSketches(db *relstore.Database, attrs []*Attribute, cfg sketch.Config) error {
	return relstore.Parallel(len(attrs), func(i int) error {
		a := attrs[i]
		if a.Sketch != nil {
			return nil
		}
		vals, err := distinctValues(db, a)
		if err != nil {
			return err
		}
		b := sketch.NewBuilder(cfg, a.Distinct)
		for _, v := range vals {
			b.Add(v)
		}
		a.Sketch = b.Finish()
		return nil
	})
}
