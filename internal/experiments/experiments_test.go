package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"spider/internal/ind"
	"spider/internal/store"
)

// Table 1 shape (Sec 2.2): all SQL variants agree on satisfied counts per
// dataset, and the join approach scans no more tuples than minus/not-in.
func TestTable1Shape(t *testing.T) {
	rows, err := Table1(Quick())
	if err != nil {
		t.Fatal(err)
	}
	byDataset := map[string][]Row{}
	for _, r := range rows {
		byDataset[r.Dataset] = append(byDataset[r.Dataset], r)
	}
	if len(byDataset["uniprot"]) != 3 || len(byDataset["scop"]) != 3 {
		t.Fatalf("uniprot/scop must have 3 approaches: %+v", byDataset)
	}
	if len(byDataset["pdb"]) != 1 {
		t.Fatalf("pdb runs join only (paper: minus/not-in never terminated): %+v", byDataset["pdb"])
	}
	for ds, rs := range byDataset {
		for _, r := range rs[1:] {
			if r.Satisfied != rs[0].Satisfied {
				t.Errorf("%s: approaches disagree on satisfied INDs", ds)
			}
		}
	}
	for _, r := range rows {
		if r.Satisfied == 0 {
			t.Errorf("%s/%s found no INDs — dataset degenerate", r.Dataset, r.Approach)
		}
	}
}

// Table 2 shape (Sec 3.3): order-based algorithms find the same INDs as
// the join approach, and read far fewer items than SQL scans tuples.
func TestTable2Shape(t *testing.T) {
	rows, err := Table2(Quick())
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Row{}
	for _, r := range rows {
		byKey[r.Dataset+"/"+r.Approach] = r
	}
	for _, ds := range []string{"uniprot", "scop"} {
		join := byKey[ds+"/join"]
		bf := byKey[ds+"/brute-force"]
		sp := byKey[ds+"/single-pass"]
		if join.Satisfied != bf.Satisfied || bf.Satisfied != sp.Satisfied {
			t.Errorf("%s: approaches disagree: join %d, bf %d, sp %d",
				ds, join.Satisfied, bf.Satisfied, sp.Satisfied)
		}
		if sp.ItemsRead > bf.ItemsRead {
			t.Errorf("%s: single pass read more than brute force", ds)
		}
	}
	pdbBF := byKey["pdb/brute-force"]
	pdbSP := byKey["pdb/single-pass (blocked 64x64)"]
	if pdbBF.Satisfied == 0 || pdbBF.Satisfied != pdbSP.Satisfied {
		t.Errorf("pdb results: bf %d, blocked sp %d", pdbBF.Satisfied, pdbSP.Satisfied)
	}
	// The partial rows: the one-pass merge must agree with the brute
	// force on satisfied INDs and never read more items; partial INDs at
	// σ=0.9 are a superset of the exact ones.
	for _, ds := range []string{"uniprot", "scop", "pdb"} {
		pb, ok := byKey[ds+"/partial σ=0.9 (brute force)"]
		if !ok {
			t.Fatalf("%s: missing partial brute-force row", ds)
		}
		pm := byKey[ds+"/partial σ=0.9 (partial merge)"]
		if pb.Satisfied != pm.Satisfied || pb.Candidates != pm.Candidates {
			t.Errorf("%s: partial merge (%d/%d) disagrees with brute force (%d/%d)",
				ds, pm.Candidates, pm.Satisfied, pb.Candidates, pb.Satisfied)
		}
		if pm.ItemsRead > pb.ItemsRead {
			t.Errorf("%s: partial merge read %d items, brute force %d", ds, pm.ItemsRead, pb.ItemsRead)
		}
		if pb.Satisfied < byKey[ds+"/brute-force"].Satisfied {
			t.Errorf("%s: σ=0.9 found fewer INDs (%d) than exact discovery (%d)",
				ds, pb.Satisfied, byKey[ds+"/brute-force"].Satisfied)
		}
	}
	// The n-ary rows: the merge-backed engine must agree with the
	// tuple-set reference on candidates and satisfied INDs; only the
	// merge engine reads sorted streams.
	for _, ds := range []string{"uniprot", "scop"} {
		nt, ok := byKey[ds+"/n-ary ≤3 (tuple-sets)"]
		if !ok {
			t.Fatalf("%s: missing n-ary tuple-sets row", ds)
		}
		nm := byKey[ds+"/n-ary ≤3 (merge)"]
		if nt.Satisfied != nm.Satisfied || nt.Candidates != nm.Candidates {
			t.Errorf("%s: n-ary merge (%d/%d) disagrees with tuple sets (%d/%d)",
				ds, nm.Candidates, nm.Satisfied, nt.Candidates, nt.Satisfied)
		}
		if nm.ItemsRead == 0 || nt.ItemsRead != 0 {
			t.Errorf("%s: n-ary items read: merge %d (want > 0), tuple sets %d (want 0)",
				ds, nm.ItemsRead, nt.ItemsRead)
		}
	}
}

// Figure 5 shape: single pass reads no more than brute force at every
// attribute count, and the gap widens as attributes are added.
func TestFigure5Shape(t *testing.T) {
	points, err := Figure5(Quick(), []int{10, 30, 60, 85})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.SinglePassItems > p.BruteForceItems {
			t.Errorf("at %d attrs single pass read more (%d) than brute force (%d)",
				p.Attributes, p.SinglePassItems, p.BruteForceItems)
		}
	}
	first := points[0]
	last := points[len(points)-1]
	gapFirst := first.BruteForceItems - first.SinglePassItems
	gapLast := last.BruteForceItems - last.SinglePassItems
	if gapLast <= gapFirst {
		t.Errorf("I/O gap must widen with attributes: first %d, last %d", gapFirst, gapLast)
	}
}

// Sec 4.1 shape: the pretest removes a substantial share of candidates on
// UniProt and PDB without changing results (verified inside Pruning), and
// reduces brute-force I/O.
func TestPruningShape(t *testing.T) {
	for _, ds := range []string{"uniprot", "pdb"} {
		r, err := Pruning(ds, Quick())
		if err != nil {
			t.Fatal(err)
		}
		if r.CandidatesAfter >= r.CandidatesBefore {
			t.Errorf("%s: pretest pruned nothing (%d -> %d)", ds, r.CandidatesBefore, r.CandidatesAfter)
		}
		if r.ItemsAfter > r.ItemsBefore {
			t.Errorf("%s: pretest increased I/O", ds)
		}
	}
}

// Sec 5 shape: the full schema-discovery story. The softened accession
// threshold scales with the data: at Quick() scale the tag tables hold
// ~50 rows with one violator (2%), so 0.97 plays the role of the paper's
// 99.98% on million-row tables.
func TestSection5Shape(t *testing.T) {
	r, err := Section5(Quick(), 0.97)
	if err != nil {
		t.Fatal(err)
	}
	if r.UniEval.Recall() != 1 || len(r.UniEval.FalsePositives) != 0 || r.UniEval.UnfindableEmpty != 2 {
		t.Errorf("UniProt FK eval = %+v", r.UniEval)
	}
	if len(r.UniAccession) != 3 {
		t.Errorf("UniProt accession candidates = %v", r.UniAccession)
	}
	if len(r.UniPrimary) == 0 || r.UniPrimary[0].Table != "sg_bioentry" {
		t.Errorf("UniProt primary = %v", r.UniPrimary)
	}
	if r.PDBSatisfied == 0 {
		t.Error("PDB must exhibit the surrogate-key IND pathology")
	}
	if len(r.PDBAccessionSoft) <= len(r.PDBAccessionHard) {
		t.Errorf("softening must admit more candidates (%d vs %d)",
			len(r.PDBAccessionSoft), len(r.PDBAccessionHard))
	}
	if len(r.PDBPrimaryRanking) == 0 || r.PDBPrimaryRanking[0].Table != "struct" {
		t.Errorf("PDB primary ranking = %v", r.PDBPrimaryRanking)
	}
}

// Ablation shapes: single pass reads less but works more per item; the
// block-wise variant trades open files for re-reads; the wished-for early
// stop reduces not-in scans.
func TestAblationsShape(t *testing.T) {
	r, err := Ablations(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.SinglePassItems > r.BruteForceItems {
		t.Error("single pass must not read more than brute force")
	}
	if r.SinglePassEvents == 0 {
		t.Error("monitor events must be counted")
	}
	if len(r.Blocked) != 4 {
		t.Fatalf("blocked points = %d", len(r.Blocked))
	}
	// The sketch pre-filter acceptance bar: ≥ 30% candidate reduction on
	// the UniProt experiment at sound settings. (Ablations itself fails
	// if the satisfied INDs are not byte-identical to the unfiltered
	// run, so this only needs to check the reduction.)
	if r.SketchCandidatesBefore == 0 {
		t.Fatal("sketch ablation did not run")
	}
	if got := float64(r.SketchCandidatesBefore-r.SketchCandidatesAfter) / float64(r.SketchCandidatesBefore); got < 0.30 {
		t.Errorf("sketch pre-filter pruned %.1f%% of candidates (%d -> %d), want >= 30%%",
			100*got, r.SketchCandidatesBefore, r.SketchCandidatesAfter)
	}
	if r.SketchItems > r.SpiderMergeItems {
		t.Errorf("sketch-filtered merge read %d items, unfiltered %d", r.SketchItems, r.SpiderMergeItems)
	}
	if r.SketchBytes == 0 {
		t.Error("sketch bytes not accounted")
	}
	if r.PartialMerge.ItemsRead > r.PartialBruteItems {
		t.Errorf("partial merge read %d items, brute force %d",
			r.PartialMerge.ItemsRead, r.PartialBruteItems)
	}
	if r.NaryMerge.Satisfied != r.NaryTupleSatisfied {
		t.Errorf("n-ary merge changed results: %d vs %d",
			r.NaryMerge.Satisfied, r.NaryTupleSatisfied)
	}
	smallest, unblocked := r.Blocked[0], r.Blocked[len(r.Blocked)-1]
	if smallest.MaxOpenFiles >= unblocked.MaxOpenFiles {
		t.Errorf("blocking must reduce open files: %d vs %d",
			smallest.MaxOpenFiles, unblocked.MaxOpenFiles)
	}
	if smallest.ItemsRead < unblocked.ItemsRead {
		t.Errorf("blocking must re-read referenced files: %d vs %d",
			smallest.ItemsRead, unblocked.ItemsRead)
	}
	if r.NotInEarlyStopItems >= r.NotInFaithfulItems {
		t.Errorf("early stop must reduce scans: %d vs %d",
			r.NotInEarlyStopItems, r.NotInFaithfulItems)
	}
}

func TestBuildDatasetUnknown(t *testing.T) {
	if _, err := BuildDataset("nope", Quick(), ind.GenOptions{}); err == nil {
		t.Error("unknown dataset must fail")
	}
}

func TestPrinters(t *testing.T) {
	rows, err := Table1(Quick())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	SortRows(rows)
	PrintRows(&buf, "Table 1", rows)
	if !strings.Contains(buf.String(), "join") {
		t.Error("Table 1 output missing join row")
	}
	points, err := Figure5(Quick(), []int{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	PrintFigure5(&buf, points)
	if !strings.Contains(buf.String(), "single pass") {
		t.Error("Figure 5 output malformed")
	}
	r5, err := Section5(Quick(), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	PrintSection5(&buf, r5)
	if !strings.Contains(buf.String(), "primary relation") {
		t.Error("Section 5 output malformed")
	}
	pr, err := Pruning("uniprot", Quick())
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	PrintPruning(&buf, []*PruningResult{pr})
	if !strings.Contains(buf.String(), "pretest") {
		t.Error("pruning output malformed")
	}
	ab, err := Ablations(Quick())
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	PrintAblations(&buf, ab)
	if !strings.Contains(buf.String(), "monitor events") {
		t.Error("ablation output malformed")
	}
}

// Modern-extension shape: the spider-merge heap engine agrees with brute
// force on every dataset and reads each value file at most once — its
// item count never exceeds the event-driven single pass, which is already
// the paper's I/O optimum.
func TestSpiderMergeShape(t *testing.T) {
	rows, err := Table2(Quick())
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Row{}
	for _, r := range rows {
		byKey[r.Dataset+"/"+r.Approach] = r
	}
	for _, ds := range []string{"uniprot", "scop", "pdb"} {
		sm, ok := byKey[ds+"/spider-merge"]
		if !ok {
			t.Fatalf("%s: missing spider-merge row", ds)
		}
		bf := byKey[ds+"/brute-force"]
		if sm.Satisfied != bf.Satisfied || sm.Candidates != bf.Candidates {
			t.Errorf("%s: spider-merge (%d/%d) disagrees with brute force (%d/%d)",
				ds, sm.Candidates, sm.Satisfied, bf.Candidates, bf.Satisfied)
		}
		if sp, ok := byKey[ds+"/single-pass"]; ok && sm.ItemsRead > sp.ItemsRead {
			t.Errorf("%s: spider-merge read %d items, single pass %d",
				ds, sm.ItemsRead, sp.ItemsRead)
		}
	}
	points, err := Figure5(Quick(), []int{10, 40, 85})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.SpiderMergeItems == 0 || p.SpiderMergeItems > p.SinglePassItems {
			t.Errorf("at %d attrs spider-merge read %d items, single pass %d",
				p.Attributes, p.SpiderMergeItems, p.SinglePassItems)
		}
	}
}

// Parallel export shape: the export pool produces byte-identical value
// files at GOMAXPROCS 1 (one attribute at a time) and at GOMAXPROCS 8.
func TestParallelExportMatchesSequential(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	seq, err := BuildDataset("scop", Quick(), ind.GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	runtime.GOMAXPROCS(8)
	par, err := BuildDataset("scop", Quick(), ind.GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	dir := t.TempDir()
	if err := ind.ExportAttributes(par.DB, par.Attrs, ind.ExportConfig{Dataset: store.NewFS(dir)}); err != nil {
		t.Fatal(err)
	}
	if len(seq.Attrs) != len(par.Attrs) {
		t.Fatalf("attr counts differ: %d vs %d", len(seq.Attrs), len(par.Attrs))
	}
	for i := range seq.Attrs {
		a, b := seq.Attrs[i], par.Attrs[i]
		av, err := os.ReadFile(filepath.Join(seq.workDir, a.Key))
		if err != nil {
			t.Fatal(err)
		}
		bv, err := os.ReadFile(filepath.Join(dir, b.Key))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(av, bv) {
			t.Errorf("%s: parallel export differs from sequential", a.Ref)
		}
	}
}
