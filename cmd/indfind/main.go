// Command indfind discovers unary inclusion dependencies in a directory
// of CSV files or in one of the built-in paper-shaped datasets:
//
//	indfind -csv ./data                      # profile a CSV directory
//	indfind -data uniprot -algo single-pass  # built-in dataset
//	indfind -data pdb -scale 0.1 -pretest    # with Sec 4.1 pruning
//
// Each CSV file becomes one table (header row + data rows, types
// inferred). The discovered INDs are printed one per line, followed by
// run statistics.
package main

import (
	"flag"
	"fmt"
	"os"

	"spider"
)

func main() {
	csvDir := flag.String("csv", "", "directory of .csv files to profile")
	data := flag.String("data", "", "built-in dataset: uniprot|scop|pdb")
	algo := flag.String("algo", "brute-force",
		"algorithm: brute-force|single-pass|single-pass-blocked|"+
			"spider-merge|sql-join|sql-minus|sql-not-in|in-memory|demarchi|bell-brockhausen")
	scale := flag.Float64("scale", 0.25, "built-in dataset scale")
	seed := flag.Int64("seed", 42, "built-in dataset seed")
	pretest := flag.Bool("pretest", false, "enable the Sec 4.1 max-value pretest")
	transitivity := flag.Bool("transitivity", false, "enable transitivity inference (brute force)")
	depBlock := flag.Int("depblock", 64, "dependent block size (single-pass-blocked)")
	refBlock := flag.Int("refblock", 0, "referenced block size (single-pass-blocked; 0 = all)")
	exportWorkers := flag.Int("exportworkers", 0, "attribute export workers (0 = GOMAXPROCS, 1 = sequential)")
	partial := flag.Float64("partial", 0, "discover partial INDs at this threshold σ in (0, 1] instead of exact INDs")
	nary := flag.Int("nary", 0, "also discover n-ary INDs up to this arity (0 = off)")
	embedded := flag.Bool("embedded", false, "also discover embedded INDs (transformed values; -algo spider-merge selects the merge-front engine)")
	workDir := flag.String("workdir", "", "directory for sorted value files (temporary when empty)")
	backendName := flag.String("backend", "fs", "storage backend for extracted value sets: fs|mem|snapshot|spill (mem/snapshot/spill never write value files; spill drops its sets when the run returns)")
	sketchOn := flag.Bool("sketch", false, "enable the sketch pre-filter (min-hash + bloom; sound on the exact path)")
	sketchContainment := flag.Float64("sketch-containment", 0,
		"also prune candidates with estimated containment below this bound (approximate; 0 = off on the exact path, σ on the partial path)")
	sketchK := flag.Int("sketch-k", 0, "min-hash signature size (0 = default 128)")
	sketchBloomBits := flag.Int("sketch-bloombits", 0, "bloom bits per distinct value (0 = default 10)")
	out := flag.String("out", "", "write the result set (attribute catalog + verified INDs) to this JSON file, servable by indserved")
	flag.Parse()

	db, err := openDatabase(*csvDir, *data, *scale, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "indfind: %v\n", err)
		os.Exit(1)
	}

	algorithm, err := parseAlgorithm(*algo)
	if err != nil {
		fmt.Fprintf(os.Stderr, "indfind: %v\n", err)
		os.Exit(1)
	}

	backend, err := spider.ParseBackend(*backendName, *workDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "indfind: %v\n", err)
		os.Exit(1)
	}

	if *out != "" && *partial > 0 {
		fmt.Fprintln(os.Stderr, "indfind: -out persists exact result sets only (not -partial runs)")
		os.Exit(1)
	}
	if *out != "" && backend.String() == "spill" {
		fmt.Fprintln(os.Stderr, "indfind: -out needs value sets that outlive the run (not -backend spill)")
		os.Exit(1)
	}

	if *partial > 0 {
		partials, stats, err := spider.FindPartialINDs(db, spider.PartialOptions{
			Threshold:               *partial,
			WorkDir:                 *workDir,
			Algorithm:               algorithm,
			ExportWorkers:           *exportWorkers,
			SketchPrefilter:         *sketchOn,
			SketchMinContainment:    *sketchContainment,
			SketchK:                 *sketchK,
			SketchBloomBitsPerValue: *sketchBloomBits,
			Store:                   backend,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "indfind: %v\n", err)
			os.Exit(1)
		}
		for _, p := range partials {
			fmt.Println(p)
		}
		printStats(stats, fmt.Sprintf("partial σ=%g %s", *partial, algorithm))
		return
	}

	res, err := spider.FindINDs(db, spider.Options{
		Algorithm:               algorithm,
		WorkDir:                 *workDir,
		MaxValuePretest:         *pretest,
		Transitivity:            *transitivity,
		DepBlock:                *depBlock,
		RefBlock:                *refBlock,
		ExportWorkers:           *exportWorkers,
		SketchPrefilter:         *sketchOn,
		SketchMinContainment:    *sketchContainment,
		SketchK:                 *sketchK,
		SketchBloomBitsPerValue: *sketchBloomBits,
		Store:                   backend,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "indfind: %v\n", err)
		os.Exit(1)
	}
	for _, d := range res.INDs {
		fmt.Println(d)
	}
	if *out != "" {
		if err := res.SaveResultSet(*out); err != nil {
			fmt.Fprintf(os.Stderr, "indfind: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "indfind: result set written to %s\n", *out)
	}
	printStats(res.Stats, algorithm.String())

	if *nary >= 2 {
		// Mirror the -partial wiring: -algo spider-merge selects the
		// merge-backed n-ary engine; every other algorithm keeps the
		// in-memory tuple-set reference.
		naryAlgo := spider.InMemory
		if algorithm == spider.SpiderMerge {
			naryAlgo = spider.SpiderMerge
		}
		naryOpts := spider.NaryOptions{
			MaxArity:      *nary,
			Algorithm:     naryAlgo,
			WorkDir:       *workDir,
			ExportWorkers: *exportWorkers,
			Store:         backend,
			// Per-level progress arrives as each level finishes, not after
			// the whole search: long levels report while later ones run.
			LevelProgress: func(p spider.NaryLevelProgress) {
				fmt.Fprintf(os.Stderr, "n-ary arity %d: %d candidates, %d satisfied, %d items read, %s\n",
					p.Arity, p.Candidates, p.Satisfied, p.ItemsRead, p.Duration.Round(1e6))
			},
		}
		naryINDs, naryStats, err := spider.FindNaryINDs(db, naryOpts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "indfind: n-ary: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nn-ary INDs (arity 2..%d): %d\n", *nary, len(naryINDs))
		for _, d := range naryINDs {
			fmt.Printf("  %s\n", d)
		}
		if naryStats.Truncated {
			fmt.Printf("  truncated at arity %d (candidate cap); lower-arity results are complete\n",
				naryStats.StoppedAtArity)
		}
		printStats(naryStats.Stats, fmt.Sprintf("n-ary ≤%d %s", *nary, naryAlgo))
	}

	if *embedded {
		embAlgo := spider.BruteForce
		if algorithm == spider.SpiderMerge {
			embAlgo = spider.SpiderMerge
		}
		embINDs, embStats, err := spider.FindEmbeddedINDsWith(db, spider.EmbeddedOptions{
			Algorithm: embAlgo,
			WorkDir:   *workDir,
			Store:     backend,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "indfind: embedded: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nembedded INDs: %d\n", len(embINDs))
		for _, d := range embINDs {
			fmt.Printf("  %s\n", d)
		}
		printStats(embStats, fmt.Sprintf("embedded %s", embAlgo))
	}
}

// printStats writes the run summary line.
func printStats(st spider.Stats, approach string) {
	fmt.Printf("\n%d candidates, %d satisfied INDs, %d items read, %d comparisons, "+
		"%d max open files, %d events, %s (%s)\n",
		st.Candidates, st.Satisfied, st.ItemsRead, st.Comparisons,
		st.MaxOpenFiles, st.Events, st.Duration.Round(1e6), approach)
	if st.BytesRead > 0 {
		fmt.Printf("value-file I/O: %d bytes read\n", st.BytesRead)
	}
	if st.CandidatesPruned > 0 || st.SketchBytes > 0 {
		fmt.Printf("sketch pre-filter: %d candidates pruned, %d sketch bytes\n",
			st.CandidatesPruned, st.SketchBytes)
	}
}

func openDatabase(csvDir, data string, scale float64, seed int64) (*spider.Database, error) {
	switch {
	case csvDir != "" && data != "":
		return nil, fmt.Errorf("use either -csv or -data, not both")
	case csvDir != "":
		return spider.LoadCSVDir("csv", csvDir)
	case data == "uniprot":
		return spider.GenerateUniProt(spider.DatasetConfig{Seed: seed, Scale: scale}), nil
	case data == "scop":
		return spider.GenerateSCOP(spider.DatasetConfig{Seed: seed, Scale: scale}), nil
	case data == "pdb":
		return spider.GeneratePDB(spider.DatasetConfig{Seed: seed, Scale: scale}), nil
	case data != "":
		return nil, fmt.Errorf("unknown dataset %q", data)
	default:
		return nil, fmt.Errorf("specify -csv DIR or -data uniprot|scop|pdb")
	}
}

func parseAlgorithm(s string) (spider.Algorithm, error) {
	for _, a := range []spider.Algorithm{
		spider.BruteForce, spider.SinglePass, spider.SinglePassBlocked, spider.SpiderMerge,
		spider.SQLJoin, spider.SQLMinus, spider.SQLNotIn,
		spider.InMemory, spider.DeMarchiBaseline, spider.BellBrockhausenBaseline,
	} {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q (run with -h for the full menu)", s)
}
