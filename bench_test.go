// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §2 for the experiment index and EXPERIMENTS.md
// for measured-vs-paper results):
//
//	BenchmarkTable1_*    — Table 1, the three SQL approaches
//	BenchmarkTable2_*    — Table 2, brute force and single pass vs join
//	BenchmarkFigure5     — Figure 5, items read vs number of attributes
//	BenchmarkPruning_*   — Sec 4.1, the max-value pretest
//	BenchmarkSection5_*  — Sec 5, schema-discovery quality
//	BenchmarkAblation_*  — single-pass overhead, block-wise variant, and
//	                       the ROWNUM/hash early stop the paper wished for
//	BenchmarkModern_*    — the spider-merge heap engine vs the faithful
//	                       event-driven single pass (UniProt, scale 0.25)
//	BenchmarkExportWorkers — parallel attribute export
//
// Times are not comparable to the paper's absolute numbers (its datasets
// are ~100x larger and ran on a 2005 commercial RDBMS); the shapes — who
// wins, by what factor, where the approaches break down — are.
package spider

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"spider/internal/datagen"
	"spider/internal/experiments"
	"spider/internal/ind"
	"spider/internal/relstore"
	"spider/internal/sketch"
	"spider/internal/store"
	"spider/internal/valfile"
)

// benchCfg sizes the datasets so the full suite completes in minutes
// while preserving the paper's shapes.
func benchCfg() experiments.Config {
	return experiments.Config{
		Seed:         42,
		UniProtScale: 0.15,
		SCOPScale:    0.15,
		PDBScale:     0.03,
		PDBTables:    39,
	}
}

// dsCache builds each dataset once per `go test -bench` process.
var dsCache = struct {
	sync.Mutex
	m map[string]*experiments.Dataset
}{m: make(map[string]*experiments.Dataset)}

func benchDataset(b *testing.B, name string) *experiments.Dataset {
	return benchDatasetScaled(b, name, name, benchCfg())
}

func benchDatasetScaled(b *testing.B, key, name string, cfg experiments.Config) *experiments.Dataset {
	b.Helper()
	dsCache.Lock()
	defer dsCache.Unlock()
	if ds, ok := dsCache.m[key]; ok {
		return ds
	}
	ds, err := experiments.BuildDataset(name, cfg, ind.GenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	dsCache.m[key] = ds
	return ds
}

// reportRun attaches the run's work counters as benchmark metrics.
func reportRun(b *testing.B, res *ind.Result) {
	b.Helper()
	b.ReportMetric(float64(res.Stats.ItemsRead), "items/op")
	b.ReportMetric(float64(res.Stats.Satisfied), "INDs")
	if res.Stats.Events > 0 {
		b.ReportMetric(float64(res.Stats.Events), "events/op")
	}
}

// --- Table 1: SQL approaches (Sec 2.2) --------------------------------

func benchSQL(b *testing.B, dataset string, variant ind.SQLVariant) {
	ds := benchDataset(b, dataset)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ind.RunSQL(ds.DB, ds.Candidates, ind.SQLOptions{Variant: variant})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportRun(b, res)
		}
	}
}

func BenchmarkTable1_UniProt_Join(b *testing.B)  { benchSQL(b, "uniprot", ind.SQLJoin) }
func BenchmarkTable1_UniProt_Minus(b *testing.B) { benchSQL(b, "uniprot", ind.SQLMinus) }
func BenchmarkTable1_UniProt_NotIn(b *testing.B) { benchSQL(b, "uniprot", ind.SQLNotIn) }
func BenchmarkTable1_SCOP_Join(b *testing.B)     { benchSQL(b, "scop", ind.SQLJoin) }
func BenchmarkTable1_SCOP_Minus(b *testing.B)    { benchSQL(b, "scop", ind.SQLMinus) }
func BenchmarkTable1_SCOP_NotIn(b *testing.B)    { benchSQL(b, "scop", ind.SQLNotIn) }

// BenchmarkTable1_PDB_Join is the only SQL cell the paper could attempt
// on PDB (minus and not-in never terminated and are "-" in Table 1).
func BenchmarkTable1_PDB_Join(b *testing.B) { benchSQL(b, "pdb", ind.SQLJoin) }

// --- Table 2: order-based approaches (Sec 3.3) ------------------------

func benchBruteForce(b *testing.B, dataset string) {
	ds := benchDataset(b, dataset)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var counter valfile.ReadCounter
		res, err := ind.BruteForce(ds.Candidates, ind.BruteForceOptions{Store: ds.Store, Counter: &counter})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportRun(b, res)
		}
	}
}

func benchSinglePass(b *testing.B, dataset string) {
	ds := benchDataset(b, dataset)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var counter valfile.ReadCounter
		res, err := ind.SinglePass(ds.Candidates, ind.SinglePassOptions{Store: ds.Store, Counter: &counter})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportRun(b, res)
		}
	}
}

func benchSpiderMerge(b *testing.B, dataset string) {
	ds := benchDataset(b, dataset)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var counter valfile.ReadCounter
		res, err := ind.SpiderMerge(ds.Candidates, ind.SpiderMergeOptions{Store: ds.Store, Counter: &counter})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportRun(b, res)
		}
	}
}

func BenchmarkTable2_UniProt_BruteForce(b *testing.B)  { benchBruteForce(b, "uniprot") }
func BenchmarkTable2_UniProt_SinglePass(b *testing.B)  { benchSinglePass(b, "uniprot") }
func BenchmarkTable2_UniProt_SpiderMerge(b *testing.B) { benchSpiderMerge(b, "uniprot") }
func BenchmarkTable2_SCOP_BruteForce(b *testing.B)     { benchBruteForce(b, "scop") }
func BenchmarkTable2_SCOP_SinglePass(b *testing.B)     { benchSinglePass(b, "scop") }
func BenchmarkTable2_SCOP_SpiderMerge(b *testing.B)    { benchSpiderMerge(b, "scop") }
func BenchmarkTable2_PDB_BruteForce(b *testing.B)      { benchBruteForce(b, "pdb") }
func BenchmarkTable2_PDB_SpiderMerge(b *testing.B)     { benchSpiderMerge(b, "pdb") }

// BenchmarkTable2_PDB_SinglePassBlocked stands in for the unblocked
// single pass, which the paper could not run on the wide PDB fraction
// ("we had to open 2560 files, which is not feasible for our system").
func BenchmarkTable2_PDB_SinglePassBlocked(b *testing.B) {
	ds := benchDataset(b, "pdb")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var counter valfile.ReadCounter
		res, err := ind.SinglePassBlocked(ds.Candidates, ind.BlockedOptions{Store: ds.Store,
			DepBlock: 64, RefBlock: 64, Counter: &counter,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportRun(b, res)
			b.ReportMetric(float64(res.Stats.MaxOpenFiles), "openfiles")
		}
	}
}

// --- Figure 5: I/O comparison (Sec 3.3) -------------------------------

func BenchmarkFigure5(b *testing.B) {
	ds := benchDataset(b, "uniprot")
	for _, n := range []int{10, 20, 30, 40, 50, 60, 70, 85} {
		subset := ds.Attrs
		if n < len(subset) {
			subset = subset[:n]
		}
		cands, _ := ind.GenerateCandidates(subset, ind.GenOptions{})
		b.Run(fmt.Sprintf("attrs=%d/brute-force", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var counter valfile.ReadCounter
				if _, err := ind.BruteForce(cands, ind.BruteForceOptions{Store: ds.Store, Counter: &counter}); err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(counter.Total()), "items/op")
				}
			}
		})
		b.Run(fmt.Sprintf("attrs=%d/single-pass", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var counter valfile.ReadCounter
				if _, err := ind.SinglePass(cands, ind.SinglePassOptions{Store: ds.Store, Counter: &counter}); err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(counter.Total()), "items/op")
				}
			}
		})
		b.Run(fmt.Sprintf("attrs=%d/spider-merge", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var counter valfile.ReadCounter
				if _, err := ind.SpiderMerge(cands, ind.SpiderMergeOptions{Store: ds.Store, Counter: &counter}); err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(counter.Total()), "items/op")
				}
			}
		})
	}
}

// --- Modern extension: heap merge vs the event-driven single pass -------

// BenchmarkModern_UniProt25 is the acceptance comparison on the UniProt
// dataset at scale 0.25: SpiderMerge must read each value file at most
// once (items/op at or below the single pass) while avoiding the monitor
// synchronisation that makes the faithful single pass slow (Sec 3.3).
func BenchmarkModern_UniProt25(b *testing.B) {
	cfg := benchCfg()
	cfg.UniProtScale = 0.25
	ds := benchDatasetScaled(b, "uniprot-0.25", "uniprot", cfg)
	b.Run("single-pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var counter valfile.ReadCounter
			res, err := ind.SinglePass(ds.Candidates, ind.SinglePassOptions{Store: ds.Store, Counter: &counter})
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				reportRun(b, res)
			}
		}
	})
	b.Run("spider-merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var counter valfile.ReadCounter
			res, err := ind.SpiderMerge(ds.Candidates, ind.SpiderMergeOptions{Store: ds.Store, Counter: &counter})
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				reportRun(b, res)
			}
		}
	})
}

// BenchmarkExportWorkers sweeps the attribute-export worker pool on the
// UniProt dataset: extraction is embarrassingly parallel per attribute.
func BenchmarkExportWorkers(b *testing.B) {
	ds := benchDataset(b, "uniprot")
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Export copies so the cached dataset's attributes stay
				// untouched.
				attrs := make([]*ind.Attribute, len(ds.Attrs))
				for j, a := range ds.Attrs {
					cp := *a
					attrs[j] = &cp
				}
				out := store.NewFS(b.TempDir())
				if err := ind.ExportAttributes(ds.DB, attrs, ind.ExportConfig{Dataset: out, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Sec 4.1: candidate pruning ----------------------------------------

func benchPruning(b *testing.B, dataset string, pretest bool) {
	ds := benchDataset(b, dataset)
	cands := ds.Candidates
	if pretest {
		cands, _ = ind.GenerateCandidates(ds.Attrs, ind.GenOptions{MaxValuePretest: true})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ind.BruteForce(cands, ind.BruteForceOptions{Store: ds.Store})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.Stats.Candidates), "candidates")
			b.ReportMetric(float64(res.Stats.Satisfied), "INDs")
		}
	}
}

func BenchmarkPruning_UniProt_NoPretest(b *testing.B)  { benchPruning(b, "uniprot", false) }
func BenchmarkPruning_UniProt_MaxPretest(b *testing.B) { benchPruning(b, "uniprot", true) }
func BenchmarkPruning_SCOP_NoPretest(b *testing.B)     { benchPruning(b, "scop", false) }
func BenchmarkPruning_SCOP_MaxPretest(b *testing.B)    { benchPruning(b, "scop", true) }
func BenchmarkPruning_PDB_NoPretest(b *testing.B)      { benchPruning(b, "pdb", false) }
func BenchmarkPruning_PDB_MaxPretest(b *testing.B)     { benchPruning(b, "pdb", true) }

// --- Sec 5: schema discovery -------------------------------------------

// BenchmarkSection5_FKQuality runs the full BioSQL gold-standard check:
// recall must stay 1.0 with zero false positives on every iteration.
func BenchmarkSection5_FKQuality(b *testing.B) {
	db := GenerateUniProt(DatasetConfig{Seed: 42, Scale: 0.15})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := DiscoverSchema(db, SchemaOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.FKEvaluation.Recall != 1 || len(rep.FKEvaluation.FalsePositives) != 0 {
			b.Fatalf("quality regression: %+v", rep.FKEvaluation)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(rep.FKEvaluation.FoundFKs), "FKs")
			b.ReportMetric(float64(rep.FKEvaluation.TransitiveINDs), "transitive")
		}
	}
}

// BenchmarkSection5_PrimaryRelation ranks primary relations on the
// OpenMMS-shaped dataset; struct must win.
func BenchmarkSection5_PrimaryRelation(b *testing.B) {
	db := GeneratePDB(DatasetConfig{Seed: 42, Scale: 0.05})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := DiscoverSchema(db, SchemaOptions{AccessionMinFraction: 0.99})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.PrimaryRelations) == 0 || rep.PrimaryRelations[0].Table != "struct" {
			b.Fatalf("primary relation regression: %v", rep.PrimaryRelations)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(len(rep.INDs)), "INDs")
			b.ReportMetric(float64(len(rep.AccessionCandidates)), "accessions")
		}
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblation_SinglePassOverhead isolates the Sec 3.3 discussion:
// the single pass reads less but pays per-event synchronisation costs.
func BenchmarkAblation_SinglePassOverhead(b *testing.B) {
	ds := benchDataset(b, "uniprot")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ind.SinglePass(ds.Candidates, ind.SinglePassOptions{Store: ds.Store})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.Stats.Events), "events/op")
			b.ReportMetric(float64(res.Stats.Comparisons), "cmp/op")
		}
	}
}

// BenchmarkAblation_Blockwise sweeps the Sec 4.2 block size: open files
// shrink, re-read I/O grows.
func BenchmarkAblation_Blockwise(b *testing.B) {
	ds := benchDataset(b, "uniprot")
	for _, block := range []int{4, 16, 64, 0} {
		name := fmt.Sprintf("depblock=%d", block)
		if block == 0 {
			name = "depblock=all"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var counter valfile.ReadCounter
				res, err := ind.SinglePassBlocked(ds.Candidates, ind.BlockedOptions{Store: ds.Store,
					DepBlock: block, Counter: &counter,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(counter.Total()), "items/op")
					b.ReportMetric(float64(res.Stats.MaxOpenFiles), "openfiles")
				}
			}
		})
	}
}

// BenchmarkAblation_SQLEarlyStop compares the faithful optimizer with the
// one the paper's authors wished for (streaming ROWNUM plus hashed NOT
// IN) on the not-in statement.
func BenchmarkAblation_SQLEarlyStop(b *testing.B) {
	ds := benchDataset(b, "uniprot")
	for _, early := range []bool{false, true} {
		name := "faithful"
		if early {
			name = "wished-for"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := ind.RunSQL(ds.DB, ds.Candidates, ind.SQLOptions{
					Variant: ind.SQLNotIn, EarlyStop: early,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(res.Stats.ItemsRead), "items/op")
				}
			}
		})
	}
}

// BenchmarkAblation_SamplingPretest measures the Sec 4.1 future-work
// pretest: candidates pruned by sampled probes before any file I/O.
func BenchmarkAblation_SamplingPretest(b *testing.B) {
	ds := benchDataset(b, "uniprot")
	for _, size := range []int{0, 4, 16, 64} {
		b.Run(fmt.Sprintf("sample=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cands := ds.Candidates
				if size > 0 {
					var err error
					cands, _, err = ind.SamplingPretest(ds.DB, cands, ind.SamplingOptions{SampleSize: size, Seed: 1})
					if err != nil {
						b.Fatal(err)
					}
				}
				res, err := ind.BruteForce(cands, ind.BruteForceOptions{Store: ds.Store})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(len(cands)), "candidates")
					b.ReportMetric(float64(res.Stats.Satisfied), "INDs")
				}
			}
		})
	}
}

// BenchmarkAblation_SketchPrefilter measures the sketch pre-filter at
// sound settings (definite bloom refutation only): sketch build +
// candidate pruning + SpiderMerge over the survivors, vs the unfiltered
// merge at sketch=off. The IND output is identical by construction.
func BenchmarkAblation_SketchPrefilter(b *testing.B) {
	ds := benchDataset(b, "uniprot")
	for _, enabled := range []bool{false, true} {
		b.Run(fmt.Sprintf("sketch=%v", enabled), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cands := ds.Candidates
				var pruned int
				if enabled {
					for _, a := range ds.Attrs {
						a.Sketch = nil // rebuild each iteration: the build is part of the cost
					}
					if err := ind.BuildAttributeSketches(ds.DB, ds.Attrs, sketch.Config{}, 0); err != nil {
						b.Fatal(err)
					}
					var st ind.SketchPretestStats
					cands, st = ind.SketchPretest(cands, ind.SketchPretestOptions{ExactRefutation: true})
					pruned = st.Pruned
				}
				res, err := ind.SpiderMerge(cands, ind.SpiderMergeOptions{Store: ds.Store})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(pruned), "pruned")
					b.ReportMetric(float64(res.Stats.Satisfied), "INDs")
				}
			}
		})
	}
}

// BenchmarkAblation_PartialINDs sweeps the partial threshold σ (Sec 7
// future work): lower thresholds match more candidates but lose the
// early stop, reading more items.
func BenchmarkAblation_PartialINDs(b *testing.B) {
	ds := benchDataset(b, "uniprot")
	for _, sigma := range []float64{1.0, 0.95, 0.8, 0.5} {
		b.Run(fmt.Sprintf("sigma=%.2f", sigma), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var counter valfile.ReadCounter
				res, err := ind.BruteForcePartial(ds.Candidates, ind.PartialOptions{Store: ds.Store,
					Threshold: sigma, Counter: &counter,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(res.Stats.Satisfied), "INDs")
					b.ReportMetric(float64(counter.Total()), "items/op")
				}
			}
		})
	}
}

// --- Partial INDs: one-pass merge vs per-candidate rescans --------------

// partialBenchCands generates the σ-aware candidate set on the UniProt
// dataset at scale 0.25 — the acceptance comparison for the partial
// engine.
func partialBenchCands(b *testing.B) (*experiments.Dataset, []ind.Candidate) {
	b.Helper()
	cfg := benchCfg()
	cfg.UniProtScale = 0.25
	ds := benchDatasetScaled(b, "uniprot-0.25", "uniprot", cfg)
	cands, _ := ind.GenerateCandidates(ds.Attrs, ind.GenOptions{PartialThreshold: 0.9})
	return ds, cands
}

// BenchmarkBruteForcePartial is the baseline: both value files reopened
// and rescanned for every candidate (quadratic I/O in the candidates
// sharing an attribute).
func BenchmarkBruteForcePartial(b *testing.B) {
	ds, cands := partialBenchCands(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var counter valfile.ReadCounter
		res, err := ind.BruteForcePartial(cands, ind.PartialOptions{Store: ds.Store, Threshold: 0.9, Counter: &counter})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(counter.Total()), "items/op")
			b.ReportMetric(float64(res.Stats.Satisfied), "INDs")
		}
	}
}

// BenchmarkPartialSpiderMerge tests every candidate in one pass; the
// acceptance bar is ≥3x fewer items read than BenchmarkBruteForcePartial,
// with identical results.
func BenchmarkPartialSpiderMerge(b *testing.B) {
	ds, cands := partialBenchCands(b)
	base, err := ind.BruteForcePartial(cands, ind.PartialOptions{Store: ds.Store, Threshold: 0.9})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var counter valfile.ReadCounter
		res, err := ind.PartialSpiderMerge(cands, 0.9, ind.SpiderMergeOptions{Store: ds.Store, Counter: &counter})
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Satisfied != base.Stats.Satisfied {
			b.Fatalf("partial merge changed results: %d vs %d", res.Stats.Satisfied, base.Stats.Satisfied)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(counter.Total()), "items/op")
			b.ReportMetric(float64(res.Stats.Satisfied), "INDs")
		}
	}
}

// BenchmarkBaselines compares this paper's algorithms with the Sec 6
// related-work comparators on the UniProt-shaped dataset: De Marchi's
// inverted-index approach pays its "huge preprocessing requirement"
// up front; Bell & Brockhausen pays one SQL join per non-inferable
// candidate.
func BenchmarkBaselines(b *testing.B) {
	ds := benchDataset(b, "uniprot")
	b.Run("brute-force", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ind.BruteForce(ds.Candidates, ind.BruteForceOptions{Store: ds.Store}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("demarchi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := ind.DeMarchi(ds.DB, ds.Attrs, ds.Candidates, ind.DeMarchiOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(float64(res.Stats.IndexEntries), "indexentries")
				b.ReportMetric(float64(res.Stats.Preprocessing.Nanoseconds()), "prep-ns")
			}
		}
	})
	b.Run("bell-brockhausen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := ind.BellBrockhausen(ds.DB, ds.Attrs)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(float64(res.Stats.TestedWithSQL), "sqlstmts")
				b.ReportMetric(float64(res.Stats.InferredSatisfied+res.Stats.InferredRefuted), "inferred")
			}
		}
	})
}

// BenchmarkNary times levelwise n-ary discovery (Sec 6's multivalued
// INDs) on the SCOP-shaped dataset, whose shared sunid domains produce
// real higher-arity inclusions.
func BenchmarkNary(b *testing.B) {
	ds := benchDataset(b, "scop")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ind.DiscoverNary(ds.DB, ind.NaryOptions{MaxArity: 3})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			total := 0
			for _, n := range res.Stats.SatisfiedByArity[2:] {
				total += n
			}
			b.ReportMetric(float64(total), "nary-INDs")
			b.ReportMetric(float64(res.Stats.TuplesCompared), "tuples/op")
		}
	}
}

// BenchmarkNaryTupleSets times levelwise n-ary discovery with the
// in-memory tuple-set reference engine on UniProt — the memory-bound
// baseline the merge engine is measured against. b.ReportAllocs makes
// the tuple-set footprint visible next to BenchmarkNaryMerge's.
func BenchmarkNaryTupleSets(b *testing.B) {
	for _, name := range []string{"uniprot", "scop"} {
		ds := benchDataset(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := ind.DiscoverNary(ds.DB, ind.NaryOptions{MaxArity: 3})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(len(res.Satisfied)), "nary-INDs")
					b.ReportMetric(float64(res.Stats.TuplesCompared), "tuples/op")
				}
			}
		})
	}
}

// BenchmarkNaryMerge times the merge-backed n-ary engine on UniProt
// and SCOP: every level is one heap merge over sorted encoded-tuple
// streams, each sorted in memory and dropped once its level is decided,
// rather than the cached distinct-tuple sets of the baseline.
func BenchmarkNaryMerge(b *testing.B) {
	for _, name := range []string{"uniprot", "scop"} {
		ds := benchDataset(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := ind.DiscoverNary(ds.DB, ind.NaryOptions{MaxArity: 3, Algorithm: ind.NaryMerge, Scratch: ds.Store, Store: ds.Store})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(len(res.Satisfied)), "nary-INDs")
					b.ReportMetric(float64(res.Stats.ItemsRead), "items/op")
				}
			}
		})
	}
}

// BenchmarkAblation_ResemblancePretest measures the Dasu et al. sketch
// filter (Sec 6): candidates pruned by min-hash containment estimates,
// built by internal/sketch at signature sizes K ∈ {16, 64, 256} and cut
// at full estimated containment. Each size sketches its own copy of the
// attributes, so the shared benchmark dataset stays sketch-free.
func BenchmarkAblation_ResemblancePretest(b *testing.B) {
	ds := benchDataset(b, "uniprot")
	for _, size := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("sketch=%d", size), func(b *testing.B) {
			attrs := make(map[int]*ind.Attribute, len(ds.Attrs))
			copies := make([]*ind.Attribute, 0, len(ds.Attrs))
			for _, a := range ds.Attrs {
				c := *a
				attrs[a.ID] = &c
				copies = append(copies, &c)
			}
			cands := make([]ind.Candidate, len(ds.Candidates))
			for i, c := range ds.Candidates {
				cands[i] = ind.Candidate{Dep: attrs[c.Dep.ID], Ref: attrs[c.Ref.ID]}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, a := range copies {
					a.Sketch = nil // the build is part of the measured pretest
				}
				if err := ind.BuildAttributeSketches(ds.DB, copies, sketch.Config{K: size}, 0); err != nil {
					b.Fatal(err)
				}
				kept, _ := ind.SketchPretest(cands, ind.SketchPretestOptions{MinContainment: 1})
				res, err := ind.BruteForce(kept, ind.BruteForceOptions{Store: ds.Store})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(len(kept)), "candidates")
					b.ReportMetric(float64(res.Stats.Satisfied), "INDs")
				}
			}
		})
	}
}

// BenchmarkSubstrate_* time the load-bearing substrates in isolation.

func BenchmarkSubstrate_SQLJoinQuery(b *testing.B) {
	ds := benchDataset(b, "uniprot")
	var c ind.Candidate
	for _, cand := range ds.Candidates {
		if cand.Dep.Ref == (relstore.ColumnRef{Table: "sg_bioentry_reference", Column: "bioentry_oid"}) {
			c = cand
			break
		}
	}
	if c.Dep == nil {
		b.Skip("candidate not present at this scale")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ind.RunSQL(ds.DB, []ind.Candidate{c}, ind.SQLOptions{Variant: ind.SQLJoin}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubstrate_CSVLoad times ingest, the paper's step-1 import
// (Fig. 1): LoadCSVDir on UniProt-shaped tables dumped as CSV, then the
// statistics of every column that candidate generation reads. Scale 2
// (≈25k rows) is a tenth of the tables the end-to-end uniprot-csv
// workload loads, large enough for the parse and statistics pools to
// matter.
func BenchmarkSubstrate_CSVLoad(b *testing.B) {
	dir, csvBytes := uniprotCSVDir(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := relstore.NewDatabase("uniprot")
		if _, err := db.LoadCSVDir(dir); err != nil {
			b.Fatal(err)
		}
		for _, ref := range db.Columns() {
			if _, err := db.ColumnStats(ref); err != nil {
				b.Fatal(err)
			}
		}
		if i == b.N-1 {
			b.ReportMetric(float64(db.TotalRows()), "rows/op")
			b.ReportMetric(float64(csvBytes)/1e6, "MB/op")
		}
	}
}

// BenchmarkSubstrate_ColumnPass times the column pass the load feeds:
// the statistics of every column, then the export of every column's
// sorted distinct set into a store.Mem, on the tables of
// BenchmarkSubstrate_CSVLoad. Each iteration loads a fresh copy with
// the timer stopped, so no statistics are cached.
func BenchmarkSubstrate_ColumnPass(b *testing.B) {
	dir, _ := uniprotCSVDir(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := relstore.NewDatabase("uniprot")
		if _, err := db.LoadCSVDir(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, ref := range db.Columns() {
			if _, err := db.ColumnStats(ref); err != nil {
				b.Fatal(err)
			}
		}
		attrs, err := ind.CollectAttributes(db)
		if err != nil {
			b.Fatal(err)
		}
		mem := store.NewMem()
		if err := ind.ExportAttributes(db, attrs, ind.ExportConfig{Dataset: mem, Workers: runtime.GOMAXPROCS(0)}); err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			distinct := 0
			for _, a := range attrs {
				distinct += a.Distinct
			}
			b.ReportMetric(float64(distinct), "values/op")
		}
	}
}

// uniprotCSVDir dumps UniProt-shaped tables at scale 2 as CSV files
// into a temporary directory and returns it with the bytes written.
func uniprotCSVDir(b *testing.B) (string, int64) {
	src := datagen.UniProt(datagen.UniProtConfig{Seed: benchCfg().Seed, Scale: 2})
	dir := b.TempDir()
	var csvBytes int64
	for _, t := range src.Tables() {
		var buf bytes.Buffer
		if err := t.DumpCSV(&buf); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, t.Name+".csv"), buf.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
		csvBytes += int64(buf.Len())
	}
	return dir, csvBytes
}

// --- Columnar block store --------------------------------------------------

// BenchmarkBlockStore times writing and scanning one sorted value file
// over a prefix-heavy value population (the shape of accession numbers
// and encoded tuples). bytes/value reports the on-disk or read I/O cost
// per delivered value.
func BenchmarkBlockStore(b *testing.B) {
	vals := make([]string, 100_000)
	for i := range vals {
		vals[i] = fmt.Sprintf("sg_accession/P%07d/rev-%03d", i/7, i%7)
	}
	write := func(b *testing.B, path string) {
		w, err := store.CreateFile(path)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range vals {
			if err := w.Append(v); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("write/block", func(b *testing.B) {
		b.ReportAllocs()
		dir := b.TempDir()
		for i := 0; i < b.N; i++ {
			path := fmt.Sprintf("%s/w%d.val", dir, i)
			write(b, path)
			if i == b.N-1 {
				fi, err := os.Stat(path)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(fi.Size())/float64(len(vals)), "bytes/value")
			}
		}
	})
	b.Run("read/block", func(b *testing.B) {
		b.ReportAllocs()
		path := fmt.Sprintf("%s/r.val", b.TempDir())
		write(b, path)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var counter valfile.ReadCounter
			r, err := store.OpenFile(path, &counter)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for {
				if _, ok := r.Next(); !ok {
					break
				}
				n++
			}
			if err := r.Close(); err != nil {
				b.Fatal(err)
			}
			if n != len(vals) {
				b.Fatalf("read %d values, want %d", n, len(vals))
			}
			if i == b.N-1 {
				b.ReportMetric(float64(counter.TotalBytes())/float64(n), "bytes/value")
			}
		}
	})
}

// BenchmarkEmbeddedMerge times embedded-IND discovery (the Sec 7
// transform extension) with the per-candidate Algorithm 1 reference vs
// the merge-front engine, which folds every derived value set into one
// shared heap merge and reads each referenced set at most once. The
// attributes are staged once into a store.Mem, outside the timer, and
// every iteration stages its derived sets there too, so the time is the
// engine's, not the file system's.
func BenchmarkEmbeddedMerge(b *testing.B) {
	ds := benchDataset(b, "uniprot")
	mem := store.NewMem()
	attrs, err := ind.Prepare(ds.DB, ind.ExportConfig{Dataset: mem})
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range []struct {
		name string
		algo ind.EmbeddedEngine
	}{
		{"algorithm-one", ind.EmbeddedAlgorithmOne},
		{"merge", ind.EmbeddedMerge},
	} {
		b.Run(e.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var counter valfile.ReadCounter
				res, err := ind.FindEmbedded(ds.DB, attrs, ind.EmbeddedOptions{
					Scratch:   mem,
					Store:     mem,
					Counter:   &counter,
					Algorithm: e.algo,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(len(res.Satisfied)), "embedded-INDs")
					b.ReportMetric(float64(res.Stats.ItemsRead), "items/op")
				}
			}
		})
	}
}

// BenchmarkStoreBackends runs the full extraction + spider-merge
// pipeline on UniProt with each storage backend holding the sorted
// value sets: block files, plain memory, and a read-only
// snapshot over memory. Same INDs everywhere; the spread is the cost of
// where the bytes live.
func BenchmarkStoreBackends(b *testing.B) {
	mk := func() *Database { return GenerateUniProt(DatasetConfig{Seed: 42, Scale: 0.15}) }
	for _, be := range []struct {
		name  string
		store func(dir string) *Store
	}{
		{"fs-block", func(dir string) *Store { return NewFSStore(dir) }},
		{"mem", func(string) *Store { return NewMemStore() }},
		{"snapshot", func(string) *Store { return NewSnapshotStore() }},
	} {
		b.Run(be.name, func(b *testing.B) {
			db := mk()
			for i := 0; i < b.N; i++ {
				res, err := FindINDs(db, Options{
					Algorithm: SpiderMerge,
					Store:     be.store(b.TempDir()),
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(len(res.INDs)), "INDs")
					b.ReportMetric(float64(res.Stats.BytesRead), "bytes/op")
				}
			}
		})
	}
}

// BenchmarkSnapshotReaders scales concurrent brute-force readers over
// one snapshot view: the shared-slice read path indserved's concurrent
// verifications sit on. The candidates are split among the
// readers; results must not move with the reader count.
func BenchmarkSnapshotReaders(b *testing.B) {
	db := GenerateUniProt(DatasetConfig{Seed: 42, Scale: 0.15})
	base, err := FindINDs(db, Options{Algorithm: InMemory})
	if err != nil {
		b.Fatal(err)
	}
	mem := store.NewMem()
	attrs, err := ind.Prepare(db.rel, ind.ExportConfig{Dataset: mem})
	if err != nil {
		b.Fatal(err)
	}
	snap := store.NewSnapshot(mem)
	cands, _ := ind.GenerateCandidates(attrs, ind.GenOptions{})
	for _, workers := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var (
					wg        sync.WaitGroup
					satisfied atomic.Int64
				)
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						var share []ind.Candidate
						for j := w; j < len(cands); j += workers {
							share = append(share, cands[j])
						}
						res, err := ind.BruteForce(share, ind.BruteForceOptions{Store: snap})
						if err != nil {
							b.Error(err)
							return
						}
						satisfied.Add(int64(len(res.Satisfied)))
					}()
				}
				wg.Wait()
				if got := int(satisfied.Load()); got != len(base.INDs) {
					b.Fatalf("workers=%d changed results: %d vs %d INDs", workers, got, len(base.INDs))
				}
				if i == b.N-1 {
					b.ReportMetric(float64(len(base.INDs)), "INDs")
				}
			}
		})
	}
}
