// Package aladin implements the five-step schema-discovery pipeline of
// the Aladin project ("Almost hands-off data integration", Sec 1.1,
// Figure 1) that motivates the paper:
//
//  1. import data sources (the caller provides loaded databases; CSV
//     import lives in relstore);
//  2. compute primary key candidates using the uniqueness constraint;
//  3. compute intra-source relationships using set inclusion (IND
//     discovery) plus heuristics;
//  4. infer relationships between data sources, considering only primary
//     relations as targets — "thus drastically reducing the search
//     space";
//  5. detect and flag duplicate objects across sources.
package aladin

import (
	"fmt"
	"sort"

	"spider/internal/discovery"
	"spider/internal/ind"
	"spider/internal/relstore"
	"spider/internal/store"
)

// Source is one imported data source (pipeline step 1).
type Source struct {
	Name string
	DB   *relstore.Database
}

// Config tunes the pipeline.
type Config struct {
	// WorkDir receives the sorted value files of every source, in one
	// dataset; required.
	WorkDir string
	// AccessionMinFraction softens the accession-number heuristic
	// (1.0 = strict; the paper also reports 0.9998).
	AccessionMinFraction float64
	// MaxValuePretest enables the Sec 4.1 candidate pruning.
	MaxValuePretest bool
}

// SourceReport is the per-source outcome of steps 2 and 3.
type SourceReport struct {
	Name string
	// KeyCandidates are unique non-empty columns (step 2).
	KeyCandidates []relstore.ColumnRef
	// INDs are the satisfied intra-source INDs (step 3).
	INDs []ind.IND
	// FKEvaluation compares against declared FKs when any exist.
	FKEvaluation *discovery.FKEvaluation
	// AccessionCandidates and PrimaryRelations feed step 4.
	AccessionCandidates []discovery.AccessionCandidate
	// PrimaryRelations is the ranked primary-relation list; the first
	// entry is the pipeline's choice.
	PrimaryRelations []discovery.PrimaryCandidate
}

// CrossIND is an inter-source inclusion (step 4): a dependent attribute of
// one source whose values are contained in a primary-relation attribute of
// another source.
type CrossIND struct {
	DepSource, RefSource string
	Dep, Ref             relstore.ColumnRef
}

// String renders the cross-source IND.
func (c CrossIND) String() string {
	return fmt.Sprintf("%s:%s ⊆ %s:%s", c.DepSource, c.Dep, c.RefSource, c.Ref)
}

// Duplicate flags one object (accession value) present in two sources
// (step 5).
type Duplicate struct {
	SourceA, SourceB string
	ColumnA, ColumnB relstore.ColumnRef
	Accession        string
}

// Report is the full pipeline outcome.
type Report struct {
	Sources  []SourceReport
	CrossIND []CrossIND
	// Duplicates lists flagged duplicate objects, capped at
	// MaxDuplicatesListed per source pair; DuplicateCount is exact.
	Duplicates     []Duplicate
	DuplicateCount int
}

// MaxDuplicatesListed caps the flagged duplicates listed per column pair.
const MaxDuplicatesListed = 20

// Run executes steps 2-5 over the given sources.
func Run(sources []Source, cfg Config) (*Report, error) {
	if cfg.WorkDir == "" {
		return nil, fmt.Errorf("aladin: Config.WorkDir is required")
	}
	if cfg.AccessionMinFraction <= 0 || cfg.AccessionMinFraction > 1 {
		cfg.AccessionMinFraction = 1
	}
	report := &Report{}
	attrsBySource := make(map[string][]*ind.Attribute)
	nextID := 0
	// Attribute IDs are unique across sources, and so are the keys
	// derived from them: every source shares one dataset.
	ds := store.NewFS(cfg.WorkDir)

	for _, src := range sources {
		if src.DB == nil {
			return nil, fmt.Errorf("aladin: source %q has no database", src.Name)
		}
		attrs, err := ind.CollectAttributes(src.DB)
		if err != nil {
			return nil, err
		}
		// Re-ID attributes globally so cross-source candidate sets stay
		// well-defined.
		for _, a := range attrs {
			a.ID = nextID
			nextID++
		}
		if err := ind.ExportAttributes(src.DB, attrs, ind.ExportConfig{Dataset: ds}); err != nil {
			return nil, err
		}
		attrsBySource[src.Name] = attrs

		sr := SourceReport{Name: src.Name}

		// Step 2: primary key candidates by uniqueness.
		for _, a := range attrs {
			if a.Unique && a.NonEmpty() {
				sr.KeyCandidates = append(sr.KeyCandidates, a.Ref)
			}
		}

		// Step 3: intra-source INDs.
		cands, _ := ind.GenerateCandidates(attrs, ind.GenOptions{MaxValuePretest: cfg.MaxValuePretest})
		res, err := ind.BruteForce(cands, ind.BruteForceOptions{Store: ds})
		if err != nil {
			return nil, err
		}
		sr.INDs = res.Satisfied
		if len(src.DB.ForeignKeys()) > 0 {
			eval := discovery.EvaluateForeignKeys(src.DB, res.Satisfied)
			sr.FKEvaluation = &eval
		}

		// Heuristics feeding step 4.
		accs, err := discovery.AccessionCandidates(src.DB, discovery.AccessionOptions{
			MinFraction: cfg.AccessionMinFraction,
		})
		if err != nil {
			return nil, err
		}
		sr.AccessionCandidates = accs
		sr.PrimaryRelations = discovery.PrimaryRelation(src.DB, res.Satisfied, accs)

		report.Sources = append(report.Sources, sr)
	}

	// Step 4: inter-source INDs, only primary relations as targets.
	for i := range report.Sources {
		for j := range report.Sources {
			if i == j {
				continue
			}
			crosses, err := crossINDs(ds, &report.Sources[i], &report.Sources[j],
				attrsBySource[report.Sources[i].Name], attrsBySource[report.Sources[j].Name])
			if err != nil {
				return nil, err
			}
			report.CrossIND = append(report.CrossIND, crosses...)
		}
	}
	sort.Slice(report.CrossIND, func(a, b int) bool {
		return report.CrossIND[a].String() < report.CrossIND[b].String()
	})

	// Step 5: duplicate objects across sources, matched on accession
	// values of the chosen primary relations.
	dups, count, err := findDuplicates(sources, report.Sources)
	if err != nil {
		return nil, err
	}
	report.Duplicates = dups
	report.DuplicateCount = count
	return report, nil
}

// crossINDs tests inclusions from all dependent attributes of depSrc into
// the referenced attributes of refSrc's primary relation.
func crossINDs(ds store.Dataset, depSrc, refSrc *SourceReport, depAttrs, refAttrs []*ind.Attribute) ([]CrossIND, error) {
	if len(refSrc.PrimaryRelations) == 0 {
		return nil, nil
	}
	primary := refSrc.PrimaryRelations[0].Table
	var cands []ind.Candidate
	for _, d := range depAttrs {
		if !d.DependentCandidate() {
			continue
		}
		for _, r := range refAttrs {
			if r.Ref.Table != primary || !r.ReferencedCandidate() {
				continue
			}
			if d.Distinct > r.Distinct {
				continue
			}
			cands = append(cands, ind.Candidate{Dep: d, Ref: r})
		}
	}
	if len(cands) == 0 {
		return nil, nil
	}
	res, err := ind.BruteForce(cands, ind.BruteForceOptions{Store: ds})
	if err != nil {
		return nil, err
	}
	out := make([]CrossIND, 0, len(res.Satisfied))
	for _, d := range res.Satisfied {
		out = append(out, CrossIND{
			DepSource: depSrc.Name, RefSource: refSrc.Name,
			Dep: d.Dep, Ref: d.Ref,
		})
	}
	return out, nil
}

// findDuplicates intersects accession values of the chosen primary
// relations across source pairs.
func findDuplicates(sources []Source, reports []SourceReport) ([]Duplicate, int, error) {
	type accSet struct {
		source string
		col    relstore.ColumnRef
		vals   map[string]struct{}
	}
	var sets []accSet
	for i, sr := range reports {
		if len(sr.PrimaryRelations) == 0 {
			continue
		}
		primary := sr.PrimaryRelations[0]
		for _, col := range primary.AccessionColumns {
			tab := sources[i].DB.Table(col.Table)
			if tab == nil {
				continue
			}
			vals, err := tab.DistinctCanonical(col.Column)
			if err != nil {
				return nil, 0, err
			}
			set := make(map[string]struct{}, len(vals))
			for _, v := range vals {
				set[v] = struct{}{}
			}
			sets = append(sets, accSet{source: sr.Name, col: col, vals: set})
		}
	}
	var out []Duplicate
	count := 0
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			if sets[i].source == sets[j].source {
				continue
			}
			listed := 0
			for v := range sets[i].vals {
				if _, ok := sets[j].vals[v]; !ok {
					continue
				}
				count++
				if listed < MaxDuplicatesListed {
					out = append(out, Duplicate{
						SourceA: sets[i].source, SourceB: sets[j].source,
						ColumnA: sets[i].col, ColumnB: sets[j].col,
						Accession: v,
					})
					listed++
				}
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].SourceA != out[b].SourceA {
			return out[a].SourceA < out[b].SourceA
		}
		return out[a].Accession < out[b].Accession
	})
	return out, count, nil
}
