// Package spider discovers unary inclusion dependencies (INDs) in
// relational data for schema discovery, reproducing Bauckmann, Leser and
// Naumann: "Efficiently Computing Inclusion Dependencies for Schema
// Discovery" (ICDE 2006).
//
// An IND a ⊆ b holds when every value of attribute a also occurs in
// attribute b; satisfied INDs are strong foreign-key guesses for
// undocumented schemas. The package offers the paper's five approaches —
// three SQL statements executed by an embedded mini SQL engine (join,
// minus, not-in) and two database-external algorithms over sorted distinct
// value files (brute force and single pass) — plus the Sec 4 pruning
// heuristics, the Sec 4.2 block-wise single pass, and the Sec 5 schema
// discovery heuristics (foreign-key evaluation, accession-number
// candidates, primary relation, and the five-step Aladin pipeline).
// Beyond the paper it adds modern extensions: an in-memory baseline, and
// SpiderMerge — a k-way heap merge over streaming value cursors that
// keeps the single-pass I/O optimum without its synchronisation
// overhead — with parallel attribute export into one of four storage
// backends (Options.Store): value files, memory, a read-only snapshot,
// or a per-call in-memory set that is dropped when the call returns.
// Every value set a call extracts, derived sets included, goes into
// and comes out of that one backend.
//
// Quick start:
//
//	db := spider.NewDatabase("demo")
//	db.AddTable("parent", []string{"id", "code"}, [][]string{{"1", "a"}, {"2", "b"}})
//	db.AddTable("child", []string{"pid"}, [][]string{{"1"}, {"1"}, {"2"}})
//	res, err := spider.FindINDs(db, spider.Options{})
//	// res.INDs == [child.pid ⊆ parent.id]
package spider

import (
	"fmt"
	"time"

	"spider/internal/datagen"
	"spider/internal/ind"
	"spider/internal/relstore"
	"spider/internal/sketch"
	"spider/internal/valfile"
)

// ColumnRef names a column as table.column.
type ColumnRef struct {
	Table  string
	Column string
}

// String renders the reference in the paper's notation.
func (r ColumnRef) String() string { return r.Table + "." + r.Column }

// IND is a satisfied inclusion dependency: every value of Dep occurs in
// Ref.
type IND struct {
	Dep, Ref ColumnRef
}

// String renders the IND in the paper's a ⊆ b notation.
func (d IND) String() string { return fmt.Sprintf("%s ⊆ %s", d.Dep, d.Ref) }

// Algorithm selects the IND verification strategy.
type Algorithm int

const (
	// BruteForce tests candidates one at a time over sorted value files
	// (paper Sec 3.1) — the paper's fastest variant.
	BruteForce Algorithm = iota
	// SinglePass tests all candidates in parallel, reading every value
	// file exactly once (paper Sec 3.2) — the most I/O-efficient variant.
	SinglePass
	// SinglePassBlocked is the Sec 4.2 extension bounding open files.
	SinglePassBlocked
	// SQLJoin, SQLMinus and SQLNotIn run one SQL statement per candidate
	// through the embedded engine (paper Sec 2, Figures 2-4).
	SQLJoin
	// SQLMinus is the Figure 3 MINUS statement.
	SQLMinus
	// SQLNotIn is the Figure 4 NOT IN statement.
	SQLNotIn
	// InMemory verifies candidates against in-memory hash sets; not part
	// of the paper, provided as a modern baseline for data that fits in
	// RAM.
	InMemory
	// DeMarchiBaseline is the related-work comparator of Sec 6 (De
	// Marchi, Lopes, Petit; EDBT 2002): preprocess an inverted index
	// value → containing attributes, then refute candidates in one sweep.
	DeMarchiBaseline
	// BellBrockhausenBaseline is the Sec 6 comparator of Bell &
	// Brockhausen (1995): SQL join statements with datatype and min/max
	// constraints plus transitivity inference. It applies its own
	// pretests regardless of Options.
	BellBrockhausenBaseline
	// SpiderMerge tests all candidates in one pass via a k-way min-heap
	// merge over all attribute cursors — the production fast path: the
	// single-pass I/O optimum without the event-driven synchronisation
	// overhead the paper measures in Sec 3.3.
	SpiderMerge
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case BruteForce:
		return "brute-force"
	case SinglePass:
		return "single-pass"
	case SinglePassBlocked:
		return "single-pass-blocked"
	case SQLJoin:
		return "sql-join"
	case SQLMinus:
		return "sql-minus"
	case SQLNotIn:
		return "sql-not-in"
	case InMemory:
		return "in-memory"
	case DeMarchiBaseline:
		return "demarchi"
	case BellBrockhausenBaseline:
		return "bell-brockhausen"
	case SpiderMerge:
		return "spider-merge"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Format names the encoding of value files.
//
// Deprecated: unread; perfbench/ still sets it. Value files are block
// files (front-coded checksummed blocks, a block index, and the
// attribute's sketch embedded in the same file); text exports convert
// with cmd/valconvert.
type Format int

// FormatBlock is the block encoding.
//
// Deprecated: unread; perfbench/ still sets it.
const FormatBlock Format = 1

// Options tunes FindINDs.
type Options struct {
	// Algorithm defaults to BruteForce.
	Algorithm Algorithm
	// WorkDir roots the fs backend when Store is nil or a NewFSStore
	// without its own directory; a temporary directory is created (and
	// removed) when empty.
	WorkDir string
	// MaxValuePretest enables the Sec 4.1 pruning: drop candidates whose
	// dependent maximum exceeds the referenced maximum.
	MaxValuePretest bool
	// SamplingPretest, when positive, prunes candidates by probing that
	// many randomly sampled dependent values against the referenced
	// value set before any file test (the Sec 4.1 future-work idea). The
	// pretest is sound: it never removes a satisfied candidate.
	SamplingPretest int
	// Transitivity enables Bell & Brockhausen inference (BruteForce only).
	Transitivity bool
	// DepBlock/RefBlock bound open files for SinglePassBlocked.
	DepBlock, RefBlock int
	// ExportWorkers bounds the attribute-export worker pool; 0 selects
	// GOMAXPROCS, 1 exports sequentially (the paper's behaviour).
	ExportWorkers int
	// SketchPrefilter enables the per-attribute sketch pre-filter: a
	// KMV min-hash signature plus a partitioned bloom filter, built for
	// every attribute in the same streaming pass that extracts its
	// values, then used to drop candidate pairs before any engine runs.
	// At default settings the filter is SOUND — a candidate is dropped
	// only when a sampled dependent value is provably absent from the
	// referenced attribute (bloom filters have no false negatives) — so
	// the discovered INDs are identical; only refuted candidates skip
	// their tests. File-backed runs persist each sketch next to the
	// attribute's value file.
	SketchPrefilter bool
	// SketchMinContainment, in (0, 1], additionally drops candidates
	// whose sketch-estimated containment |s(a) ∩ s(b)| / |s(a)| falls
	// below it. APPROXIMATE: a satisfied IND can be lost with small
	// probability, so this is opt-in. Zero keeps the pre-filter sound.
	SketchMinContainment float64
	// SketchK sizes the min-hash signature (0 selects the default, 128
	// minima = 1 KiB per attribute); SketchBloomBitsPerValue sizes the
	// bloom filter relative to each attribute's distinct count (0
	// selects the default 10 bits/value ≈ 1% false positives).
	SketchK                 int
	SketchBloomBitsPerValue int
	// SQLEarlyStop lets ROWNUM stop the embedded engine early — the
	// behaviour the paper could not obtain from the commercial optimizer.
	SQLEarlyStop bool
	// Deprecated: unread; perfbench/ still sets it.
	Format Format
	// Store selects the dataset backend extraction writes to and the
	// engines read from: NewFSStore, NewMemStore, NewSnapshotStore or
	// NewSpillStore. nil is the fs backend rooted at WorkDir.
	Store *Store
}

// sketchConfig maps the public sketch knobs onto the package config.
func (o Options) sketchConfig() sketch.Config {
	return sketch.Config{K: o.SketchK, BloomBitsPerValue: o.SketchBloomBitsPerValue}
}

// Stats describes the work a discovery run performed.
type Stats struct {
	// Candidates is the number of IND candidates tested (after pretests);
	// Satisfied of them hold.
	Candidates int
	Satisfied  int
	// ItemsRead counts values read from sorted files (order-based
	// algorithms) or base-table tuples scanned (SQL approaches) — the
	// paper's Figure 5 metric.
	ItemsRead int64
	// BytesRead counts raw bytes pulled from value sets by the
	// order-based engines, the I/O behind the same delivered items.
	// Zero for engines that never open value sets.
	BytesRead int64
	// Comparisons counts value comparisons.
	Comparisons int64
	// MaxOpenFiles is the peak number of simultaneously open value files,
	// the single-pass scalability limit of Sec 4.2.
	MaxOpenFiles int
	// Events counts single-pass monitor deliveries (the synchronisation
	// overhead of Sec 3.3).
	Events int64
	// CandidatesPruned counts pairs the sketch pre-filter removed before
	// verification; SketchBytes is the total size of the sketches
	// consulted. Both are zero when the pre-filter is off.
	CandidatesPruned int
	SketchBytes      int64
	// Duration is the wall-clock time of the verification phase.
	Duration time.Duration
}

// Result is the outcome of FindINDs.
type Result struct {
	INDs  []IND
	Stats Stats

	// Persistence state for SaveResultSet: the attribute catalog of the
	// run, the dataset name, the algorithm that produced the INDs, and
	// whether the value sets were dropped at return (the spill backend).
	attrs     []*ind.Attribute
	dataset   string
	algorithm string
	spilled   bool
}

// Database wraps a loaded data source.
type Database struct {
	rel *relstore.Database
}

// NewDatabase returns an empty database with the given name.
func NewDatabase(name string) *Database {
	return &Database{rel: relstore.NewDatabase(name)}
}

// AddTable creates a table from a header and string rows. Column kinds are
// inferred from the data (integers, floats, booleans, otherwise text);
// empty strings load as NULL.
func (d *Database) AddTable(name string, columns []string, rows [][]string) error {
	_, err := d.rel.AddRecords(name, columns, rows)
	return err
}

// DeclareForeignKey records a known foreign key, used as the gold standard
// by DiscoverSchema's evaluation.
func (d *Database) DeclareForeignKey(dep, ref ColumnRef) error {
	return d.rel.DeclareForeignKey(
		relstore.ColumnRef{Table: dep.Table, Column: dep.Column},
		relstore.ColumnRef{Table: ref.Table, Column: ref.Column},
	)
}

// Tables lists the table names in creation order.
func (d *Database) Tables() []string {
	var out []string
	for _, t := range d.rel.Tables() {
		out = append(out, t.Name)
	}
	return out
}

// Columns lists all columns in catalog order.
func (d *Database) Columns() []ColumnRef {
	var out []ColumnRef
	for _, c := range d.rel.Columns() {
		out = append(out, ColumnRef{Table: c.Table, Column: c.Column})
	}
	return out
}

// RowCount returns the number of rows of the named table, or -1 if the
// table does not exist.
func (d *Database) RowCount(table string) int {
	t := d.rel.Table(table)
	if t == nil {
		return -1
	}
	return t.RowCount()
}

// LoadCSVDir loads every *.csv file of dir as one table each (header
// row + data rows, types inferred). The files are parsed concurrently;
// the tables are cataloged in sorted file name order.
func LoadCSVDir(name, dir string) (*Database, error) {
	d := NewDatabase(name)
	if _, err := d.rel.LoadCSVDir(dir); err != nil {
		return nil, err
	}
	return d, nil
}

// DatasetConfig scales the built-in paper-shaped datasets.
type DatasetConfig struct {
	// Seed drives all randomness (default 42).
	Seed int64
	// Scale multiplies row counts (default 1.0).
	Scale float64
	// Tables applies to the PDB dataset only (default 39).
	Tables int
	// WideAtoms applies to the PDB dataset only: adds the huge
	// atom-coordinate tables the paper had to drop.
	WideAtoms bool
}

func (c DatasetConfig) seed() int64 {
	if c.Seed == 0 {
		return 42
	}
	return c.Seed
}

// GenerateUniProt builds the UniProt/BioSQL-shaped dataset (16 tables, 85
// attributes, declared FKs).
func GenerateUniProt(cfg DatasetConfig) *Database {
	return &Database{rel: datagen.UniProt(datagen.UniProtConfig{Seed: cfg.seed(), Scale: cfg.Scale})}
}

// GenerateSCOP builds the SCOP-shaped dataset (4 tables, 22 attributes).
func GenerateSCOP(cfg DatasetConfig) *Database {
	return &Database{rel: datagen.SCOP(datagen.SCOPConfig{Seed: cfg.seed(), Scale: cfg.Scale})}
}

// GeneratePDB builds the PDB/OpenMMS-shaped dataset (39 tables by
// default, no declared FKs, surrogate-key pathology).
func GeneratePDB(cfg DatasetConfig) *Database {
	return &Database{rel: datagen.PDB(datagen.PDBConfig{
		Seed: cfg.seed(), Scale: cfg.Scale, Tables: cfg.Tables, WideAtoms: cfg.WideAtoms,
	})}
}

// FindINDs discovers all satisfied unary INDs of db using the selected
// algorithm.
func FindINDs(db *Database, opts Options) (*Result, error) {
	if opts.SketchMinContainment < 0 || opts.SketchMinContainment > 1 {
		// > 1 would silently prune every candidate (estimates cap at 1).
		return nil, fmt.Errorf("spider: SketchMinContainment must be in [0, 1], got %v", opts.SketchMinContainment)
	}
	writeDS, readDS, cleanup, err := opts.Store.open(opts.WorkDir)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	attrs, err := ind.CollectAttributes(db.rel)
	if err != nil {
		return nil, err
	}

	// Extraction runs before candidate generation, so that sketches
	// (derived in the same extraction pass) exist by the time the
	// pre-filter runs.
	var counter valfile.ReadCounter
	switch {
	case needsFiles(opts.Algorithm):
		err := ind.ExportAttributes(db.rel, attrs, ind.ExportConfig{
			Dataset: writeDS, Workers: exportWorkers(opts),
			Sketches: opts.SketchPrefilter, SketchConfig: opts.sketchConfig(),
		})
		if err != nil {
			return nil, err
		}
	case opts.SketchPrefilter:
		// Engines that never extract value sets (SQL, in-memory,
		// baselines) still get sketches, from the columns' sorted sets.
		if err := ind.BuildAttributeSketches(db.rel, attrs, opts.sketchConfig(), exportWorkers(opts)); err != nil {
			return nil, err
		}
	}

	cands, _ := ind.GenerateCandidates(attrs, ind.GenOptions{MaxValuePretest: opts.MaxValuePretest})
	if opts.SamplingPretest > 0 {
		var serr error
		cands, _, serr = ind.SamplingPretest(db.rel, cands, ind.SamplingOptions{
			SampleSize: opts.SamplingPretest, Seed: 1,
		})
		if serr != nil {
			return nil, serr
		}
	}
	var sketchStats ind.SketchPretestStats
	if opts.SketchPrefilter {
		cands, sketchStats = ind.SketchPretest(cands, ind.SketchPretestOptions{
			ExactRefutation: true, MinContainment: opts.SketchMinContainment,
		})
	}

	var res *ind.Result
	switch opts.Algorithm {
	case BruteForce:
		res, err = ind.BruteForce(cands, ind.BruteForceOptions{Counter: &counter, Store: readDS, Transitivity: opts.Transitivity})
	case SinglePass:
		res, err = ind.SinglePass(cands, ind.SinglePassOptions{Counter: &counter, Store: readDS})
	case SinglePassBlocked:
		res, err = ind.SinglePassBlocked(cands, ind.BlockedOptions{
			DepBlock: opts.DepBlock, RefBlock: opts.RefBlock, Counter: &counter, Store: readDS,
		})
	case SpiderMerge:
		res, err = ind.SpiderMerge(cands, ind.SpiderMergeOptions{Counter: &counter, Store: readDS})
	case SQLJoin, SQLMinus, SQLNotIn:
		variant := map[Algorithm]ind.SQLVariant{
			SQLJoin: ind.SQLJoin, SQLMinus: ind.SQLMinus, SQLNotIn: ind.SQLNotIn,
		}[opts.Algorithm]
		res, err = ind.RunSQL(db.rel, cands, ind.SQLOptions{Variant: variant, EarlyStop: opts.SQLEarlyStop})
	case InMemory:
		sets := make(map[int][]string, len(attrs))
		for _, a := range attrs {
			vals, derr := db.rel.Table(a.Ref.Table).DistinctCanonical(a.Ref.Column)
			if derr != nil {
				return nil, derr
			}
			sets[a.ID] = vals
		}
		res = ind.Reference(cands, sets)
	case DeMarchiBaseline:
		dm, derr := ind.DeMarchi(db.rel, attrs, cands, ind.DeMarchiOptions{})
		if derr != nil {
			return nil, derr
		}
		res = &ind.Result{Satisfied: dm.Satisfied, Stats: dm.Stats.Stats}
	case BellBrockhausenBaseline:
		bb, berr := ind.BellBrockhausen(db.rel, attrs)
		if berr != nil {
			return nil, berr
		}
		res = &ind.Result{Satisfied: bb.Satisfied, Stats: bb.Stats.Stats}
	default:
		return nil, fmt.Errorf("spider: unknown algorithm %v", opts.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	res.Stats.CandidatesPruned = sketchStats.Pruned
	res.Stats.SketchBytes = sketchStats.SketchBytes
	out := convertResult(res)
	out.attrs = attrs
	out.dataset = db.rel.Name
	out.algorithm = opts.Algorithm.String()
	out.spilled = opts.Store.spill()
	return out, nil
}

// exportWorkers resolves Options.ExportWorkers to a pool size.
func exportWorkers(opts Options) int {
	return workerPool(opts.ExportWorkers)
}

func needsFiles(a Algorithm) bool {
	switch a {
	case BruteForce, SinglePass, SinglePassBlocked, SpiderMerge:
		return true
	default:
		return false
	}
}

// convertStats maps the internal stats onto the public ones.
func convertStats(st ind.Stats) Stats {
	return Stats{
		Candidates:       st.Candidates,
		Satisfied:        st.Satisfied,
		ItemsRead:        st.ItemsRead,
		BytesRead:        st.BytesRead,
		Comparisons:      st.Comparisons,
		MaxOpenFiles:     st.MaxOpenFiles,
		Events:           st.Events,
		CandidatesPruned: st.CandidatesPruned,
		SketchBytes:      st.SketchBytes,
		Duration:         st.Duration,
	}
}

func convertResult(res *ind.Result) *Result {
	out := &Result{Stats: convertStats(res.Stats)}
	for _, d := range res.Satisfied {
		out.INDs = append(out.INDs, IND{
			Dep: ColumnRef{Table: d.Dep.Table, Column: d.Dep.Column},
			Ref: ColumnRef{Table: d.Ref.Table, Column: d.Ref.Column},
		})
	}
	return out
}
