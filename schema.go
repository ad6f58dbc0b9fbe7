package spider

import (
	"fmt"
	"os"

	"spider/internal/aladin"
	"spider/internal/discovery"
)

// SchemaOptions tunes DiscoverSchema.
type SchemaOptions struct {
	// Find configures the underlying IND discovery.
	Find Options
	// AccessionMinFraction softens the accession-number heuristic; 1.0
	// (the default) is the strict rule, the paper also reports 0.9998.
	AccessionMinFraction float64
}

// AccessionCandidate is a column whose values look like accession numbers
// (Sec 5 heuristic 1).
type AccessionCandidate struct {
	Ref ColumnRef
	// Fraction of non-null values satisfying the criteria.
	Fraction float64
}

// PrimaryCandidate is one relation ranked by Sec 5 heuristic 2.
type PrimaryCandidate struct {
	Table            string
	ReferencingINDs  int
	AccessionColumns []ColumnRef
}

// FKEvaluation compares discovered INDs against declared foreign keys.
type FKEvaluation struct {
	DeclaredFKs     int
	FoundFKs        int
	UnfindableEmpty int
	MissedFKs       []IND
	TransitiveINDs  int
	FalsePositives  []IND
	Recall          float64
}

// SchemaReport is the outcome of DiscoverSchema: the paper's Sec 5
// analysis for one database.
type SchemaReport struct {
	// INDs are all satisfied inclusion dependencies — the foreign-key
	// guesses.
	INDs  []IND
	Stats Stats
	// FKEvaluation is non-nil when the database declares foreign keys.
	FKEvaluation *FKEvaluation
	// AccessionCandidates are the columns passing heuristic 1.
	AccessionCandidates []AccessionCandidate
	// PrimaryRelations ranks the relations holding accession candidates
	// by referencing INDs (heuristic 2); the first entry is the guess.
	PrimaryRelations []PrimaryCandidate
}

// DiscoverSchema runs IND discovery plus the Sec 5 schema-discovery
// heuristics on db.
func DiscoverSchema(db *Database, opts SchemaOptions) (*SchemaReport, error) {
	res, err := FindINDs(db, opts.Find)
	if err != nil {
		return nil, err
	}
	report := &SchemaReport{INDs: res.INDs, Stats: res.Stats}

	internal := internalINDs(res.INDs)
	if len(db.rel.ForeignKeys()) > 0 {
		eval := discovery.EvaluateForeignKeys(db.rel, internal)
		report.FKEvaluation = convertFKEval(eval)
	}
	accs, err := discovery.AccessionCandidates(db.rel, discovery.AccessionOptions{
		MinFraction: opts.AccessionMinFraction,
	})
	if err != nil {
		return nil, err
	}
	report.AccessionCandidates = convertAccessions(accs)
	report.PrimaryRelations = convertPrimaries(discovery.PrimaryRelation(db.rel, internal, accs))
	return report, nil
}

func convertFKEval(eval discovery.FKEvaluation) *FKEvaluation {
	return &FKEvaluation{
		DeclaredFKs:     eval.DeclaredFKs,
		FoundFKs:        eval.FoundFKs,
		UnfindableEmpty: eval.UnfindableEmpty,
		MissedFKs:       publicINDs(eval.MissedFKs),
		TransitiveINDs:  eval.TransitiveINDs,
		FalsePositives:  publicINDs(eval.FalsePositives),
		Recall:          eval.Recall(),
	}
}

func convertAccessions(accs []discovery.AccessionCandidate) []AccessionCandidate {
	var out []AccessionCandidate
	for _, a := range accs {
		out = append(out, AccessionCandidate{Ref: ColumnRef(a.Ref), Fraction: a.Fraction})
	}
	return out
}

func convertPrimaries(ps []discovery.PrimaryCandidate) []PrimaryCandidate {
	var out []PrimaryCandidate
	for _, p := range ps {
		out = append(out, PrimaryCandidate{
			Table: p.Table, ReferencingINDs: p.ReferencingINDs, AccessionColumns: publicRefs(p.AccessionColumns),
		})
	}
	return out
}

// AladinSource names one data source for the pipeline.
type AladinSource struct {
	Name string
	DB   *Database
}

// AladinOptions tunes RunAladin.
type AladinOptions struct {
	// WorkDir receives sorted value files; a temporary directory is used
	// when empty.
	WorkDir string
	// AccessionMinFraction softens heuristic 1 (default strict).
	AccessionMinFraction float64
	// MaxValuePretest enables Sec 4.1 pruning.
	MaxValuePretest bool
}

// AladinSourceReport is the per-source outcome of pipeline steps 2-3.
type AladinSourceReport struct {
	Name                string
	KeyCandidates       []ColumnRef
	INDs                []IND
	FKEvaluation        *FKEvaluation
	AccessionCandidates []AccessionCandidate
	PrimaryRelations    []PrimaryCandidate
}

// CrossIND is an inter-source inclusion (pipeline step 4).
type CrossIND struct {
	DepSource, RefSource string
	Dep, Ref             ColumnRef
}

// String renders the cross-source IND.
func (c CrossIND) String() string {
	return fmt.Sprintf("%s:%s ⊆ %s:%s", c.DepSource, c.Dep, c.RefSource, c.Ref)
}

// Duplicate flags one object present in two sources (pipeline step 5).
type Duplicate struct {
	SourceA, SourceB string
	Accession        string
}

// AladinReport is the five-step pipeline outcome.
type AladinReport struct {
	Sources        []AladinSourceReport
	CrossINDs      []CrossIND
	Duplicates     []Duplicate
	DuplicateCount int
}

// RunAladin executes the five-step Aladin pipeline (Fig. 1) over the given
// sources: key candidates, intra-source INDs, inter-source INDs targeting
// primary relations only, and duplicate flagging.
func RunAladin(sources []AladinSource, opts AladinOptions) (*AladinReport, error) {
	workDir := opts.WorkDir
	if workDir == "" {
		tmp, err := os.MkdirTemp("", "spider-aladin-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		workDir = tmp
	}
	in := make([]aladin.Source, len(sources))
	for i, s := range sources {
		if s.DB == nil {
			return nil, fmt.Errorf("spider: source %q has no database", s.Name)
		}
		in[i] = aladin.Source{Name: s.Name, DB: s.DB.rel}
	}
	rep, err := aladin.Run(in, aladin.Config{
		WorkDir:              workDir,
		AccessionMinFraction: opts.AccessionMinFraction,
		MaxValuePretest:      opts.MaxValuePretest,
	})
	if err != nil {
		return nil, err
	}
	return convertAladin(rep), nil
}

func convertAladin(rep *aladin.Report) *AladinReport {
	out := &AladinReport{DuplicateCount: rep.DuplicateCount}
	for _, sr := range rep.Sources {
		asr := AladinSourceReport{
			Name:                sr.Name,
			KeyCandidates:       publicRefs(sr.KeyCandidates),
			INDs:                publicINDs(sr.INDs),
			AccessionCandidates: convertAccessions(sr.AccessionCandidates),
			PrimaryRelations:    convertPrimaries(sr.PrimaryRelations),
		}
		if sr.FKEvaluation != nil {
			asr.FKEvaluation = convertFKEval(*sr.FKEvaluation)
		}
		out.Sources = append(out.Sources, asr)
	}
	for _, c := range rep.CrossIND {
		out.CrossINDs = append(out.CrossINDs, CrossIND{
			DepSource: c.DepSource, RefSource: c.RefSource, Dep: ColumnRef(c.Dep), Ref: ColumnRef(c.Ref),
		})
	}
	for _, d := range rep.Duplicates {
		out.Duplicates = append(out.Duplicates, Duplicate{
			SourceA: d.SourceA, SourceB: d.SourceB, Accession: d.Accession,
		})
	}
	return out
}
