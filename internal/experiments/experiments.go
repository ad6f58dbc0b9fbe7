// Package experiments regenerates every table and figure of the paper's
// evaluation: Table 1 (SQL approaches), Table 2 (order-based approaches),
// Figure 5 (I/O comparison), the Sec 4.1 pruning results and the Sec 5
// schema-discovery results, plus two ablations (single-pass overhead and
// the block-wise extension). cmd/indbench prints them; bench_test.go times
// them; tests assert their shapes.
package experiments

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"text/tabwriter"
	"time"

	"spider/internal/datagen"
	"spider/internal/discovery"
	"spider/internal/ind"
	"spider/internal/relstore"
	"spider/internal/sketch"
	"spider/internal/store"
	"spider/internal/valfile"
)

// Config scales the experiment datasets. The zero value selects the
// default (bench) scales; Quick returns a configuration small enough for
// unit tests.
type Config struct {
	// Seed for all generators.
	Seed int64
	// UniProtScale, SCOPScale, PDBScale multiply dataset row counts.
	UniProtScale, SCOPScale, PDBScale float64
	// PDBTables is the PDB table count (default 39, the paper's second
	// fraction).
	PDBTables int
	// WorkDir for sorted value files; a fresh temp dir per run if empty.
	WorkDir string
}

// Quick returns a configuration sized for unit tests.
func Quick() Config {
	return Config{Seed: 42, UniProtScale: 0.04, SCOPScale: 0.04, PDBScale: 0.02, PDBTables: 12}
}

// Default returns the bench-scale configuration.
func Default() Config {
	return Config{Seed: 42, UniProtScale: 0.25, SCOPScale: 0.25, PDBScale: 0.08, PDBTables: 39}
}

func (c Config) normalize() Config {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.UniProtScale <= 0 {
		c.UniProtScale = 0.25
	}
	if c.SCOPScale <= 0 {
		c.SCOPScale = 0.25
	}
	if c.PDBScale <= 0 {
		c.PDBScale = 0.08
	}
	if c.PDBTables <= 0 {
		c.PDBTables = 39
	}
	return c
}

// Dataset bundles a generated database with its prepared attributes and
// candidates. Store holds the attributes' sorted value sets, as value
// files in the work directory; every engine run on the dataset reads
// from it.
type Dataset struct {
	Name       string
	DB         *relstore.Database
	Store      store.Dataset
	Attrs      []*ind.Attribute
	Candidates []ind.Candidate
	GenStats   ind.GenStats
	workDir    string
	cleanup    bool
}

// Close removes the dataset's value-file directory if it was temporary.
func (d *Dataset) Close() {
	if d.cleanup {
		os.RemoveAll(d.workDir)
	}
}

// BuildDataset generates and prepares one of the three paper datasets:
// "uniprot", "scop" or "pdb".
func BuildDataset(name string, cfg Config, opts ind.GenOptions) (*Dataset, error) {
	cfg = cfg.normalize()
	var db *relstore.Database
	switch name {
	case "uniprot":
		db = datagen.UniProt(datagen.UniProtConfig{Seed: cfg.Seed, Scale: cfg.UniProtScale})
	case "scop":
		db = datagen.SCOP(datagen.SCOPConfig{Seed: cfg.Seed, Scale: cfg.SCOPScale})
	case "pdb":
		db = datagen.PDB(datagen.PDBConfig{Seed: cfg.Seed, Scale: cfg.PDBScale, Tables: cfg.PDBTables})
	default:
		return nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
	ds := &Dataset{Name: name, DB: db, workDir: cfg.WorkDir}
	if ds.workDir == "" {
		tmp, err := os.MkdirTemp("", "spider-exp-*")
		if err != nil {
			return nil, err
		}
		ds.workDir = tmp
		ds.cleanup = true
	}
	ds.Store = store.NewFS(ds.workDir)
	attrs, err := ind.Prepare(db, ind.ExportConfig{Dataset: ds.Store})
	if err != nil {
		ds.Close()
		return nil, err
	}
	ds.Attrs = attrs
	ds.Candidates, ds.GenStats = ind.GenerateCandidates(attrs, opts)
	return ds, nil
}

// Row is one measured cell: approach × dataset.
type Row struct {
	Dataset    string
	Approach   string
	Candidates int
	Satisfied  int
	ItemsRead  int64
	Duration   time.Duration
}

// Table1 reproduces the paper's Table 1: the three SQL approaches on the
// three datasets. Per the paper, only the join approach is attempted on
// the PDB dataset (minus and not-in are "-" in Table 1: they never
// terminated), and even join is impractical there — we run it on the
// scaled fraction and let the wall clock speak.
func Table1(cfg Config) ([]Row, error) {
	var rows []Row
	for _, name := range []string{"uniprot", "scop", "pdb"} {
		ds, err := BuildDataset(name, cfg, ind.GenOptions{})
		if err != nil {
			return nil, err
		}
		variants := []ind.SQLVariant{ind.SQLJoin, ind.SQLMinus, ind.SQLNotIn}
		if name == "pdb" {
			variants = []ind.SQLVariant{ind.SQLJoin}
		}
		for _, v := range variants {
			res, err := ind.RunSQL(ds.DB, ds.Candidates, ind.SQLOptions{Variant: v})
			if err != nil {
				ds.Close()
				return nil, err
			}
			rows = append(rows, Row{
				Dataset:    name,
				Approach:   v.String(),
				Candidates: res.Stats.Candidates,
				Satisfied:  res.Stats.Satisfied,
				ItemsRead:  res.Stats.ItemsRead,
				Duration:   res.Stats.Duration,
			})
		}
		ds.Close()
	}
	return rows, nil
}

// Table2 reproduces the paper's Table 2: brute force and single pass
// against the fastest SQL approach (join) on all three datasets, plus the
// PDB fraction. On the full-width PDB dataset the unblocked single pass
// needs one open file per attribute — the Sec 4.2 limit — so, like the
// paper (which could not run it on the 2560-attribute fraction), Table2
// reports the blocked variant there.
func Table2(cfg Config) ([]Row, error) {
	var rows []Row
	for _, name := range []string{"uniprot", "scop", "pdb"} {
		ds, err := BuildDataset(name, cfg, ind.GenOptions{})
		if err != nil {
			return nil, err
		}
		run := func(approach string, f func(counter *valfile.ReadCounter) (*ind.Result, error)) error {
			var counter valfile.ReadCounter
			res, err := f(&counter)
			if err != nil {
				return err
			}
			rows = append(rows, Row{
				Dataset:    name,
				Approach:   approach,
				Candidates: res.Stats.Candidates,
				Satisfied:  res.Stats.Satisfied,
				ItemsRead:  res.Stats.ItemsRead,
				Duration:   res.Stats.Duration,
			})
			return nil
		}
		if err := run("join", func(_ *valfile.ReadCounter) (*ind.Result, error) {
			return ind.RunSQL(ds.DB, ds.Candidates, ind.SQLOptions{Variant: ind.SQLJoin})
		}); err != nil {
			ds.Close()
			return nil, err
		}
		if err := run("brute-force", func(c *valfile.ReadCounter) (*ind.Result, error) {
			return ind.BruteForce(ds.Candidates, ind.BruteForceOptions{Counter: c, Store: ds.Store})
		}); err != nil {
			ds.Close()
			return nil, err
		}
		if name == "pdb" {
			if err := run("single-pass (blocked 64x64)", func(c *valfile.ReadCounter) (*ind.Result, error) {
				return ind.SinglePassBlocked(ds.Candidates, ind.BlockedOptions{DepBlock: 64, RefBlock: 64, Counter: c, Store: ds.Store})
			}); err != nil {
				ds.Close()
				return nil, err
			}
		} else {
			if err := run("single-pass", func(c *valfile.ReadCounter) (*ind.Result, error) {
				return ind.SinglePass(ds.Candidates, ind.SinglePassOptions{Counter: c, Store: ds.Store})
			}); err != nil {
				ds.Close()
				return nil, err
			}
		}
		if err := run("spider-merge", func(c *valfile.ReadCounter) (*ind.Result, error) {
			return ind.SpiderMerge(ds.Candidates, ind.SpiderMergeOptions{Counter: c, Store: ds.Store})
		}); err != nil {
			ds.Close()
			return nil, err
		}
		// The Sec 7 dirty-data extension: partial INDs at σ = 0.9, tested
		// per candidate (brute force) and in one pass (partial merge).
		// Candidates are regenerated with the σ-aware cardinality bound.
		pcands, _ := ind.GenerateCandidates(ds.Attrs, ind.GenOptions{PartialThreshold: 0.9})
		runPartial := func(approach string, f func(c *valfile.ReadCounter) (*ind.PartialResult, error)) error {
			var counter valfile.ReadCounter
			res, err := f(&counter)
			if err != nil {
				return err
			}
			rows = append(rows, Row{
				Dataset:    name,
				Approach:   approach,
				Candidates: res.Stats.Candidates,
				Satisfied:  res.Stats.Satisfied,
				ItemsRead:  res.Stats.ItemsRead,
				Duration:   res.Stats.Duration,
			})
			return nil
		}
		if err := runPartial("partial σ=0.9 (brute force)", func(c *valfile.ReadCounter) (*ind.PartialResult, error) {
			return ind.BruteForcePartial(pcands, ind.PartialOptions{Threshold: 0.9, Counter: c, Store: ds.Store})
		}); err != nil {
			ds.Close()
			return nil, err
		}
		if err := runPartial("partial σ=0.9 (partial merge)", func(c *valfile.ReadCounter) (*ind.PartialResult, error) {
			return ind.PartialSpiderMerge(pcands, 0.9, ind.SpiderMergeOptions{Counter: c, Store: ds.Store})
		}); err != nil {
			ds.Close()
			return nil, err
		}
		// The Sec 6 outlook made concrete: levelwise n-ary discovery with
		// the in-memory tuple-set reference and the merge-backed engine.
		// PDB is skipped — its surrogate-key pathology floods level 1 with
		// integer-column pairs, which Sec 5 already documents for the
		// unary case.
		if name != "pdb" {
			for _, engine := range []ind.NaryEngine{ind.NaryTupleSets, ind.NaryMerge} {
				res, err := ind.DiscoverNary(ds.DB, ind.NaryOptions{MaxArity: 3, Algorithm: engine, Scratch: ds.Store, Store: ds.Store})
				if err != nil {
					ds.Close()
					return nil, err
				}
				cands := 0
				for _, n := range res.Stats.CandidatesByArity {
					cands += n
				}
				rows = append(rows, Row{
					Dataset:    name,
					Approach:   fmt.Sprintf("n-ary ≤3 (%s)", engine),
					Candidates: cands,
					Satisfied:  len(res.Satisfied),
					ItemsRead:  res.Stats.ItemsRead,
					Duration:   res.Stats.Duration,
				})
			}
		}
		ds.Close()
	}
	return rows, nil
}

// Figure5Point is one point of the paper's Figure 5: items read by each
// algorithm when profiling the first N attributes of the UniProt dataset.
// SpiderMergeItems extends the figure with the modern heap-merge engine,
// which reads every file at most once and closes cursors early.
type Figure5Point struct {
	Attributes       int
	BruteForceItems  int64
	SinglePassItems  int64
	SpiderMergeItems int64
}

// Figure5 reproduces the paper's Figure 5 I/O comparison on growing
// attribute subsets of the UniProt dataset.
func Figure5(cfg Config, steps []int) ([]Figure5Point, error) {
	ds, err := BuildDataset("uniprot", cfg, ind.GenOptions{})
	if err != nil {
		return nil, err
	}
	defer ds.Close()
	if len(steps) == 0 {
		steps = []int{10, 20, 30, 40, 50, 60, 70, 85}
	}
	var points []Figure5Point
	for _, n := range steps {
		if n > len(ds.Attrs) {
			n = len(ds.Attrs)
		}
		subset := ds.Attrs[:n]
		cands, _ := ind.GenerateCandidates(subset, ind.GenOptions{})
		var bf, sp, sm valfile.ReadCounter
		if _, err := ind.BruteForce(cands, ind.BruteForceOptions{Counter: &bf, Store: ds.Store}); err != nil {
			return nil, err
		}
		if _, err := ind.SinglePass(cands, ind.SinglePassOptions{Counter: &sp, Store: ds.Store}); err != nil {
			return nil, err
		}
		if _, err := ind.SpiderMerge(cands, ind.SpiderMergeOptions{Counter: &sm, Store: ds.Store}); err != nil {
			return nil, err
		}
		points = append(points, Figure5Point{
			Attributes:       n,
			BruteForceItems:  bf.Total(),
			SinglePassItems:  sp.Total(),
			SpiderMergeItems: sm.Total(),
		})
	}
	return points, nil
}

// PruningResult reproduces the Sec 4.1 measurements on one dataset: the
// candidate reduction by the max-value pretest and the resulting speedup
// for brute force and single pass.
type PruningResult struct {
	Dataset          string
	CandidatesBefore int
	CandidatesAfter  int
	BruteBefore      time.Duration
	BruteAfter       time.Duration
	SingleBefore     time.Duration
	SingleAfter      time.Duration
	ItemsBefore      int64
	ItemsAfter       int64
}

// Pruning measures the Sec 4.1 max-value pretest on the given dataset.
func Pruning(name string, cfg Config) (*PruningResult, error) {
	plain, err := BuildDataset(name, cfg, ind.GenOptions{})
	if err != nil {
		return nil, err
	}
	defer plain.Close()
	pruned, _ := ind.GenerateCandidates(plain.Attrs, ind.GenOptions{MaxValuePretest: true})

	out := &PruningResult{
		Dataset:          name,
		CandidatesBefore: len(plain.Candidates),
		CandidatesAfter:  len(pruned),
	}
	var c1, c2 valfile.ReadCounter
	bf1, err := ind.BruteForce(plain.Candidates, ind.BruteForceOptions{Counter: &c1, Store: plain.Store})
	if err != nil {
		return nil, err
	}
	bf2, err := ind.BruteForce(pruned, ind.BruteForceOptions{Counter: &c2, Store: plain.Store})
	if err != nil {
		return nil, err
	}
	if bf1.Stats.Satisfied != bf2.Stats.Satisfied {
		return nil, fmt.Errorf("experiments: pruning changed results on %s (%d vs %d)",
			name, bf1.Stats.Satisfied, bf2.Stats.Satisfied)
	}
	out.BruteBefore, out.BruteAfter = bf1.Stats.Duration, bf2.Stats.Duration
	out.ItemsBefore, out.ItemsAfter = c1.Total(), c2.Total()

	sp1, err := ind.SinglePass(plain.Candidates, ind.SinglePassOptions{Store: plain.Store})
	if err != nil {
		return nil, err
	}
	sp2, err := ind.SinglePass(pruned, ind.SinglePassOptions{Store: plain.Store})
	if err != nil {
		return nil, err
	}
	out.SingleBefore, out.SingleAfter = sp1.Stats.Duration, sp2.Stats.Duration
	return out, nil
}

// Section5Result reproduces the paper's Sec 5 schema-discovery analysis.
type Section5Result struct {
	// UniProt (BioSQL gold standard).
	UniEval      discovery.FKEvaluation
	UniAccession []discovery.AccessionCandidate
	UniPrimary   []discovery.PrimaryCandidate
	// PDB (OpenMMS, no gold standard).
	PDBSatisfied      int
	PDBAccessionHard  []discovery.AccessionCandidate
	PDBAccessionSoft  []discovery.AccessionCandidate
	PDBPrimaryRanking []discovery.PrimaryCandidate
}

// Section5 runs the foreign-key, accession-number and primary-relation
// analyses on the UniProt and PDB datasets. softFraction is the softened
// accession threshold (the paper's 99.98% corresponds to ~0.98 at our
// ~100x smaller scale).
func Section5(cfg Config, softFraction float64) (*Section5Result, error) {
	if softFraction <= 0 {
		softFraction = 0.98
	}
	out := &Section5Result{}

	uni, err := BuildDataset("uniprot", cfg, ind.GenOptions{})
	if err != nil {
		return nil, err
	}
	res, err := ind.BruteForce(uni.Candidates, ind.BruteForceOptions{Store: uni.Store})
	if err != nil {
		uni.Close()
		return nil, err
	}
	out.UniEval = discovery.EvaluateForeignKeys(uni.DB, res.Satisfied)
	out.UniAccession, err = discovery.AccessionCandidates(uni.DB, discovery.AccessionOptions{})
	if err != nil {
		uni.Close()
		return nil, err
	}
	out.UniPrimary = discovery.PrimaryRelation(uni.DB, res.Satisfied, out.UniAccession)
	uni.Close()

	pdb, err := BuildDataset("pdb", cfg, ind.GenOptions{})
	if err != nil {
		return nil, err
	}
	defer pdb.Close()
	pres, err := ind.BruteForce(pdb.Candidates, ind.BruteForceOptions{Store: pdb.Store})
	if err != nil {
		return nil, err
	}
	out.PDBSatisfied = pres.Stats.Satisfied
	out.PDBAccessionHard, err = discovery.AccessionCandidates(pdb.DB, discovery.AccessionOptions{})
	if err != nil {
		return nil, err
	}
	out.PDBAccessionSoft, err = discovery.AccessionCandidates(pdb.DB, discovery.AccessionOptions{MinFraction: softFraction})
	if err != nil {
		return nil, err
	}
	out.PDBPrimaryRanking = discovery.PrimaryRelation(pdb.DB, pres.Satisfied, out.PDBAccessionSoft)
	return out, nil
}

// AblationResult quantifies design choices DESIGN.md calls out.
type AblationResult struct {
	// Single-pass synchronisation overhead (Sec 3.3 discussion): events
	// and comparisons behind the wall-clock gap to brute force.
	SinglePassEvents      int64
	SinglePassComparisons int64
	SinglePassDuration    time.Duration
	BruteForceDuration    time.Duration
	BruteForceItems       int64
	SinglePassItems       int64
	// SpiderMerge: same I/O optimum, no event machinery (modern path).
	SpiderMergeDuration time.Duration
	SpiderMergeItems    int64
	// Sketch pre-filter (min-hash + bloom) at sound settings: candidate
	// pairs dropped before the merge, with the satisfied set verified
	// byte-identical to the unfiltered SpiderMerge run. SketchItems is
	// the merge I/O over the surviving candidates.
	SketchCandidatesBefore int
	SketchCandidatesAfter  int
	SketchBytes            int64
	SketchBuildDuration    time.Duration
	SketchMergeDuration    time.Duration
	SketchItems            int64
	// Partial INDs at σ = 0.9 (Sec 7): the one-pass partial merge vs the
	// per-candidate brute force. Satisfied must match the brute-force
	// baseline.
	PartialBruteItems    int64
	PartialBruteDuration time.Duration
	PartialMerge         MergePoint
	// N-ary discovery (Sec 6's multivalued INDs): the in-memory
	// tuple-set reference vs the merge-backed engine. Satisfied must
	// match.
	NaryTupleSatisfied int
	NaryTupleDuration  time.Duration
	NaryMerge          MergePoint
	// Block-wise single pass (Sec 4.2): open files vs items read.
	Blocked []BlockedPoint
	// SQL early stop (what the paper wished the optimizer did): not-in
	// tuples scanned with and without early stopping.
	NotInFaithfulItems  int64
	NotInEarlyStopItems int64
}

// BlockedPoint is one block size of the Sec 4.2 ablation.
type BlockedPoint struct {
	DepBlock     int
	MaxOpenFiles int
	ItemsRead    int64
	Duration     time.Duration
}

// MergePoint is one merge-engine run of an ablation.
type MergePoint struct {
	Satisfied int
	ItemsRead int64
	Duration  time.Duration
}

// Ablations measures the three ablations on the UniProt dataset.
func Ablations(cfg Config) (*AblationResult, error) {
	ds, err := BuildDataset("uniprot", cfg, ind.GenOptions{})
	if err != nil {
		return nil, err
	}
	defer ds.Close()
	out := &AblationResult{}

	var bfC, spC valfile.ReadCounter
	bf, err := ind.BruteForce(ds.Candidates, ind.BruteForceOptions{Counter: &bfC, Store: ds.Store})
	if err != nil {
		return nil, err
	}
	sp, err := ind.SinglePass(ds.Candidates, ind.SinglePassOptions{Counter: &spC, Store: ds.Store})
	if err != nil {
		return nil, err
	}
	out.BruteForceDuration = bf.Stats.Duration
	out.SinglePassDuration = sp.Stats.Duration
	out.SinglePassEvents = sp.Stats.Events
	out.SinglePassComparisons = sp.Stats.Comparisons
	out.BruteForceItems = bfC.Total()
	out.SinglePassItems = spC.Total()

	var smC valfile.ReadCounter
	sm, err := ind.SpiderMerge(ds.Candidates, ind.SpiderMergeOptions{Counter: &smC, Store: ds.Store})
	if err != nil {
		return nil, err
	}
	out.SpiderMergeDuration = sm.Stats.Duration
	out.SpiderMergeItems = smC.Total()

	// Sketch pre-filter at sound settings (definite bloom refutation
	// only): the pruned candidate set must verify to the byte-identical
	// satisfied INDs while reading fewer items.
	sketchStart := time.Now()
	if err := ind.BuildAttributeSketches(ds.DB, ds.Attrs, sketch.Config{}); err != nil {
		return nil, err
	}
	prunedCands, sketchSt := ind.SketchPretest(ds.Candidates, ind.SketchPretestOptions{ExactRefutation: true})
	out.SketchBuildDuration = time.Since(sketchStart)
	out.SketchCandidatesBefore = sketchSt.Candidates
	out.SketchCandidatesAfter = len(prunedCands)
	out.SketchBytes = sketchSt.SketchBytes
	var skC valfile.ReadCounter
	smSketch, err := ind.SpiderMerge(prunedCands, ind.SpiderMergeOptions{Counter: &skC, Store: ds.Store})
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(smSketch.Satisfied, sm.Satisfied) {
		return nil, fmt.Errorf("experiments: sketch pre-filter changed results (%d vs %d satisfied)",
			len(smSketch.Satisfied), len(sm.Satisfied))
	}
	out.SketchMergeDuration = smSketch.Stats.Duration
	out.SketchItems = skC.Total()

	pcands, _ := ind.GenerateCandidates(ds.Attrs, ind.GenOptions{PartialThreshold: 0.9})
	var pbC valfile.ReadCounter
	pb, err := ind.BruteForcePartial(pcands, ind.PartialOptions{Threshold: 0.9, Counter: &pbC, Store: ds.Store})
	if err != nil {
		return nil, err
	}
	out.PartialBruteItems = pbC.Total()
	out.PartialBruteDuration = pb.Stats.Duration
	var pmC valfile.ReadCounter
	pm, err := ind.PartialSpiderMerge(pcands, 0.9, ind.SpiderMergeOptions{Counter: &pmC, Store: ds.Store})
	if err != nil {
		return nil, err
	}
	if pm.Stats.Satisfied != pb.Stats.Satisfied {
		return nil, fmt.Errorf("experiments: partial merge changed results: %d vs %d",
			pm.Stats.Satisfied, pb.Stats.Satisfied)
	}
	out.PartialMerge = MergePoint{
		Satisfied: pm.Stats.Satisfied,
		ItemsRead: pmC.Total(),
		Duration:  pm.Stats.Duration,
	}

	nt, err := ind.DiscoverNary(ds.DB, ind.NaryOptions{MaxArity: 3})
	if err != nil {
		return nil, err
	}
	out.NaryTupleSatisfied = len(nt.Satisfied)
	out.NaryTupleDuration = nt.Stats.Duration
	nm, err := ind.DiscoverNary(ds.DB, ind.NaryOptions{MaxArity: 3, Algorithm: ind.NaryMerge, Scratch: ds.Store, Store: ds.Store})
	if err != nil {
		return nil, err
	}
	if len(nm.Satisfied) != len(nt.Satisfied) {
		return nil, fmt.Errorf("experiments: n-ary merge changed results: %d vs %d",
			len(nm.Satisfied), len(nt.Satisfied))
	}
	out.NaryMerge = MergePoint{
		Satisfied: len(nm.Satisfied),
		ItemsRead: nm.Stats.ItemsRead,
		Duration:  nm.Stats.Duration,
	}

	for _, block := range []int{8, 32, 128, 0} {
		var c valfile.ReadCounter
		res, err := ind.SinglePassBlocked(ds.Candidates, ind.BlockedOptions{DepBlock: block, Counter: &c, Store: ds.Store})
		if err != nil {
			return nil, err
		}
		out.Blocked = append(out.Blocked, BlockedPoint{
			DepBlock:     block,
			MaxOpenFiles: res.Stats.MaxOpenFiles,
			ItemsRead:    c.Total(),
			Duration:     res.Stats.Duration,
		})
	}

	faithful, err := ind.RunSQL(ds.DB, ds.Candidates, ind.SQLOptions{Variant: ind.SQLNotIn})
	if err != nil {
		return nil, err
	}
	early, err := ind.RunSQL(ds.DB, ds.Candidates, ind.SQLOptions{Variant: ind.SQLNotIn, EarlyStop: true})
	if err != nil {
		return nil, err
	}
	if faithful.Stats.Satisfied != early.Stats.Satisfied {
		return nil, fmt.Errorf("experiments: early stop changed results")
	}
	out.NotInFaithfulItems = faithful.Stats.ItemsRead
	out.NotInEarlyStopItems = early.Stats.ItemsRead
	return out, nil
}

// -------------------------------------------------------------- printing

// PrintRows writes a Table 1/2 style report.
func PrintRows(w io.Writer, title string, rows []Row) {
	fmt.Fprintf(w, "%s\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\tapproach\t# IND candidates\t# satisfied INDs\titems read\ttime")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%s\n",
			r.Dataset, r.Approach, r.Candidates, r.Satisfied, r.ItemsRead, r.Duration.Round(time.Millisecond))
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// PrintFigure5 writes the Figure 5 series.
func PrintFigure5(w io.Writer, points []Figure5Point) {
	fmt.Fprintln(w, "Figure 5: number of items read vs number of attributes (UniProt-shaped)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "attributes\tbrute force\tsingle pass\tspider-merge\tratio")
	for _, p := range points {
		ratio := float64(p.BruteForceItems) / float64(max64(p.SinglePassItems, 1))
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%.2fx\n",
			p.Attributes, p.BruteForceItems, p.SinglePassItems, p.SpiderMergeItems, ratio)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// PrintPruning writes a Sec 4.1 report.
func PrintPruning(w io.Writer, results []*PruningResult) {
	fmt.Fprintln(w, "Section 4.1: max-value pretest pruning")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\tcandidates\tafter pretest\tbrute force\tafter\tsingle pass\tafter")
	for _, r := range results {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%s\t%s\n",
			r.Dataset, r.CandidatesBefore, r.CandidatesAfter,
			r.BruteBefore.Round(time.Millisecond), r.BruteAfter.Round(time.Millisecond),
			r.SingleBefore.Round(time.Millisecond), r.SingleAfter.Round(time.Millisecond))
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// PrintSection5 writes the Sec 5 report.
func PrintSection5(w io.Writer, r *Section5Result) {
	fmt.Fprintln(w, "Section 5: schema discovery using INDs")
	fmt.Fprintf(w, "  UniProt/BioSQL: declared FKs %d, found %d, unfindable (empty tables) %d, recall %.2f\n",
		r.UniEval.DeclaredFKs, r.UniEval.FoundFKs, r.UniEval.UnfindableEmpty, r.UniEval.Recall())
	fmt.Fprintf(w, "  UniProt/BioSQL: transitive-closure INDs %d, false positives %d\n",
		r.UniEval.TransitiveINDs, len(r.UniEval.FalsePositives))
	fmt.Fprintf(w, "  UniProt accession candidates (%d):", len(r.UniAccession))
	for _, a := range r.UniAccession {
		fmt.Fprintf(w, " %s", a.Ref)
	}
	fmt.Fprintln(w)
	if len(r.UniPrimary) > 0 {
		fmt.Fprintf(w, "  UniProt primary relation: %s (%d referencing INDs)\n",
			r.UniPrimary[0].Table, r.UniPrimary[0].ReferencingINDs)
	}
	fmt.Fprintf(w, "  PDB/OpenMMS: satisfied INDs %d (surrogate-key pathology)\n", r.PDBSatisfied)
	fmt.Fprintf(w, "  PDB accession candidates: %d strict, %d softened\n",
		len(r.PDBAccessionHard), len(r.PDBAccessionSoft))
	n := len(r.PDBPrimaryRanking)
	if n > 3 {
		n = 3
	}
	fmt.Fprintf(w, "  PDB primary relation finalists:")
	for _, c := range r.PDBPrimaryRanking[:n] {
		fmt.Fprintf(w, " %s(%d)", c.Table, c.ReferencingINDs)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)
}

// PrintAblations writes the ablation report.
func PrintAblations(w io.Writer, r *AblationResult) {
	fmt.Fprintln(w, "Ablation: single-pass synchronisation overhead (Sec 3.3)")
	fmt.Fprintf(w, "  brute force: %s for %d items read\n",
		r.BruteForceDuration.Round(time.Millisecond), r.BruteForceItems)
	fmt.Fprintf(w, "  single pass: %s for %d items read, %d monitor events, %d comparisons\n",
		r.SinglePassDuration.Round(time.Millisecond), r.SinglePassItems,
		r.SinglePassEvents, r.SinglePassComparisons)
	fmt.Fprintf(w, "  spider-merge: %s for %d items read, zero monitor events\n",
		r.SpiderMergeDuration.Round(time.Millisecond), r.SpiderMergeItems)
	fmt.Fprintln(w, "Ablation: sketch pre-filter (min-hash + bloom, sound settings)")
	reduction := 0.0
	if r.SketchCandidatesBefore > 0 {
		reduction = 100 * float64(r.SketchCandidatesBefore-r.SketchCandidatesAfter) / float64(r.SketchCandidatesBefore)
	}
	fmt.Fprintf(w, "  candidates %d -> %d (%.1f%% pruned, identical INDs), %d sketch bytes, build %s\n",
		r.SketchCandidatesBefore, r.SketchCandidatesAfter, reduction,
		r.SketchBytes, r.SketchBuildDuration.Round(time.Millisecond))
	fmt.Fprintf(w, "  spider-merge over survivors: %s for %d items read (unfiltered: %s for %d)\n",
		r.SketchMergeDuration.Round(time.Millisecond), r.SketchItems,
		r.SpiderMergeDuration.Round(time.Millisecond), r.SpiderMergeItems)
	fmt.Fprintln(w, "Ablation: partial INDs at σ=0.9 (Sec 7; one-pass merge vs per-candidate rescans)")
	fmt.Fprintf(w, "  brute force: %s for %d items read\n",
		r.PartialBruteDuration.Round(time.Millisecond), r.PartialBruteItems)
	fmt.Fprintf(w, "  partial merge: %s for %d items read, %d satisfied\n",
		r.PartialMerge.Duration.Round(time.Millisecond), r.PartialMerge.ItemsRead, r.PartialMerge.Satisfied)
	fmt.Fprintln(w, "Ablation: n-ary INDs ≤3 (Sec 6; merge-backed levels vs in-memory tuple sets)")
	fmt.Fprintf(w, "  tuple sets: %s for %d satisfied INDs\n",
		r.NaryTupleDuration.Round(time.Millisecond), r.NaryTupleSatisfied)
	fmt.Fprintf(w, "  merge: %s for %d items read, %d satisfied INDs\n",
		r.NaryMerge.Duration.Round(time.Millisecond), r.NaryMerge.ItemsRead, r.NaryMerge.Satisfied)
	fmt.Fprintln(w, "Ablation: block-wise single pass (Sec 4.2; DepBlock 0 = unblocked)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dep block\tmax open files\titems read\ttime")
	for _, b := range r.Blocked {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%s\n", b.DepBlock, b.MaxOpenFiles, b.ItemsRead, b.Duration.Round(time.Millisecond))
	}
	tw.Flush()
	fmt.Fprintln(w, "Ablation: ROWNUM early stop the paper could not obtain (not-in)")
	fmt.Fprintf(w, "  faithful optimizer: %d tuples scanned; early stop: %d tuples scanned\n",
		r.NotInFaithfulItems, r.NotInEarlyStopItems)
	fmt.Fprintln(w)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// SortRows orders rows by dataset then approach for stable output.
func SortRows(rows []Row) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Dataset != rows[j].Dataset {
			return rows[i].Dataset < rows[j].Dataset
		}
		return rows[i].Approach < rows[j].Approach
	})
}
