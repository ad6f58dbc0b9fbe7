// Command schemadisc runs the paper's Sec 5 schema discovery on a CSV
// directory or a built-in dataset: IND-based foreign-key guesses (with
// gold-standard evaluation when constraints are declared), accession-
// number candidates and the primary-relation ranking.
//
//	schemadisc -data uniprot
//	schemadisc -data pdb -soft 0.99
//	schemadisc -csv ./dump
package main

import (
	"flag"
	"fmt"
	"os"

	"spider"
)

func main() {
	csvDir := flag.String("csv", "", "directory of .csv files to analyse")
	data := flag.String("data", "", "built-in dataset: uniprot|scop|pdb")
	scale := flag.Float64("scale", 0.25, "built-in dataset scale")
	seed := flag.Int64("seed", 42, "built-in dataset seed")
	soft := flag.Float64("soft", 1.0, "accession heuristic threshold (1.0 strict; paper also used 0.9998)")
	maxINDs := flag.Int("maxinds", 40, "maximum INDs to list (0 = all)")
	backendName := flag.String("backend", "fs", "storage backend for the IND discovery pass: fs|mem|snapshot|spill")
	flag.Parse()

	backend, err := spider.ParseBackend(*backendName, "", spider.FormatText)
	if err != nil {
		fmt.Fprintf(os.Stderr, "schemadisc: %v\n", err)
		os.Exit(1)
	}

	var db *spider.Database
	switch {
	case *csvDir != "":
		db, err = spider.LoadCSVDir("csv", *csvDir)
	case *data == "uniprot":
		db = spider.GenerateUniProt(spider.DatasetConfig{Seed: *seed, Scale: *scale})
	case *data == "scop":
		db = spider.GenerateSCOP(spider.DatasetConfig{Seed: *seed, Scale: *scale})
	case *data == "pdb":
		db = spider.GeneratePDB(spider.DatasetConfig{Seed: *seed, Scale: *scale})
	default:
		err = fmt.Errorf("specify -csv DIR or -data uniprot|scop|pdb")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "schemadisc: %v\n", err)
		os.Exit(1)
	}

	rep, err := spider.DiscoverSchema(db, spider.SchemaOptions{
		Find:                 spider.Options{Store: backend},
		AccessionMinFraction: *soft,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "schemadisc: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("satisfied INDs (foreign-key guesses): %d\n", len(rep.INDs))
	limit := *maxINDs
	if limit == 0 || limit > len(rep.INDs) {
		limit = len(rep.INDs)
	}
	for _, d := range rep.INDs[:limit] {
		fmt.Printf("  %s\n", d)
	}
	if limit < len(rep.INDs) {
		fmt.Printf("  ... and %d more\n", len(rep.INDs)-limit)
	}

	if e := rep.FKEvaluation; e != nil {
		fmt.Printf("\ngold standard: %d declared FKs, %d found, %d unfindable (empty tables), recall %.2f\n",
			e.DeclaredFKs, e.FoundFKs, e.UnfindableEmpty, e.Recall)
		fmt.Printf("transitive-closure INDs: %d, false positives: %d\n",
			e.TransitiveINDs, len(e.FalsePositives))
		for _, fp := range e.FalsePositives {
			fmt.Printf("  false positive: %s\n", fp)
		}
	}

	fmt.Printf("\naccession-number candidates: %d\n", len(rep.AccessionCandidates))
	for _, a := range rep.AccessionCandidates {
		fmt.Printf("  %s (%.2f%% of values)\n", a.Ref, a.Fraction*100)
	}

	fmt.Printf("\nprimary relation ranking:\n")
	for i, p := range rep.PrimaryRelations {
		if i >= 5 {
			fmt.Printf("  ... and %d more\n", len(rep.PrimaryRelations)-5)
			break
		}
		fmt.Printf("  %d. %s (%d referencing INDs)\n", i+1, p.Table, p.ReferencingINDs)
	}
}
