// Command indbench regenerates every table and figure of the paper's
// evaluation on the synthetic paper-shaped datasets:
//
//	indbench -exp table1     # Table 1: SQL approaches (join, minus, not in)
//	indbench -exp table2     # Table 2: brute force, single pass and the
//	                         # modern spider-merge heap engine vs join
//	indbench -exp figure5    # Figure 5: items read vs number of attributes
//	                         # (brute force vs single pass vs spider-merge)
//	indbench -exp pruning    # Sec 4.1: max-value pretest
//	indbench -exp section5   # Sec 5: FK quality, accessions, primary relation
//	indbench -exp ablations  # single-pass overhead, block-wise, early stop
//	indbench -exp all        # everything
//
// -scale multiplies the dataset sizes (1.0 reproduces the default bench
// scale; the paper's absolute sizes are ~100x larger).
//
// The -json mode instead converts `go test -bench` output into the
// benchmark-trajectory JSON the CI pipeline gates on:
//
//	go test -bench . -benchtime 1x -count 5 -run '^$' | \
//	  indbench -json -out BENCH_ci.json -baseline BENCH_baseline.json
//
// Repeated result lines of one benchmark (-count N) fold into their
// median.
//
// With -baseline it exits non-zero when any benchmark above the noise
// floor (-minms) regressed by more than -tolerance.
package main

import (
	"flag"
	"fmt"
	"os"

	"spider/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1|table2|figure5|pruning|section5|ablations|all")
	seed := flag.Int64("seed", 42, "dataset generator seed")
	scale := flag.Float64("scale", 1.0, "multiplier on the default dataset scales")
	pdbTables := flag.Int("pdbtables", 39, "PDB table count (paper's second fraction: 39)")
	soft := flag.Float64("soft", 0.98, "softened accession-number threshold (section5)")
	jsonMode := flag.Bool("json", false, "convert `go test -bench` output to benchmark JSON instead of running experiments")
	jsonIn := flag.String("in", "-", "bench output to read in -json mode (- = stdin)")
	jsonOut := flag.String("out", "BENCH_ci.json", "JSON file to write in -json mode (empty = none)")
	baseline := flag.String("baseline", "", "baseline JSON to compare against in -json mode (empty = no gate)")
	tolerance := flag.Float64("tolerance", 0.25, "allowed slowdown vs baseline before failing (-json mode)")
	minMs := flag.Float64("minms", 50, "noise floor in milliseconds; faster benchmarks are not compared (-json mode)")
	flag.Parse()

	if *jsonMode {
		os.Exit(runBenchJSON(*jsonIn, *jsonOut, *baseline, *tolerance, *minMs))
	}

	base := experiments.Default()
	cfg := experiments.Config{
		Seed:         *seed,
		UniProtScale: base.UniProtScale * *scale,
		SCOPScale:    base.SCOPScale * *scale,
		PDBScale:     base.PDBScale * *scale,
		PDBTables:    *pdbTables,
	}

	run := func(name string) error {
		switch name {
		case "table1":
			rows, err := experiments.Table1(cfg)
			if err != nil {
				return err
			}
			experiments.PrintRows(os.Stdout, "Table 1: experimental results utilizing SQL", rows)
		case "table2":
			rows, err := experiments.Table2(cfg)
			if err != nil {
				return err
			}
			experiments.PrintRows(os.Stdout, "Table 2: approaches using order on data vs the SQL join approach", rows)
		case "figure5":
			points, err := experiments.Figure5(cfg, nil)
			if err != nil {
				return err
			}
			experiments.PrintFigure5(os.Stdout, points)
		case "pruning":
			var results []*experiments.PruningResult
			for _, ds := range []string{"uniprot", "scop", "pdb"} {
				r, err := experiments.Pruning(ds, cfg)
				if err != nil {
					return err
				}
				results = append(results, r)
			}
			experiments.PrintPruning(os.Stdout, results)
		case "section5":
			r, err := experiments.Section5(cfg, *soft)
			if err != nil {
				return err
			}
			experiments.PrintSection5(os.Stdout, r)
		case "ablations":
			r, err := experiments.Ablations(cfg)
			if err != nil {
				return err
			}
			experiments.PrintAblations(os.Stdout, r)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table1", "table2", "figure5", "pruning", "section5", "ablations"}
	}
	for _, n := range names {
		if err := run(n); err != nil {
			fmt.Fprintf(os.Stderr, "indbench: %v\n", err)
			os.Exit(1)
		}
	}
}
