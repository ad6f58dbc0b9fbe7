package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"spider"
	"spider/internal/datagen"
	"spider/internal/extsort"
	"spider/internal/ind"
	"spider/internal/relstore"
	"spider/internal/sketch"
	"spider/internal/store"
	"spider/internal/valfile"
	"spider/internal/value"
)

// Input sizes. The full sizes are the measured ones; tiny sizes only
// check that every metric is plumbed through.
func uniprotScale(e *env) float64 { return pick(e, 20, 0.3) }
func scopScale(e *env) float64    { return pick(e, 5, 0.3) }
func pdbScale(e *env) float64     { return pick(e, 0.5, 0.05) }

func pick(e *env, full, tiny float64) float64 {
	if e.tiny {
		return tiny
	}
	return full
}

// batchInst is a batch workload: each op starts from the CSV directory,
// as a user of indfind -csv does, and must reproduce the oracle's INDs.
type batchInst struct {
	name    string
	csvDir  string
	csvMB   float64
	scratch string
	want    []string
	nary    bool
}

func setupUniProtCSV(e *env) (instance, error) {
	return setupBatch(e, "uniprot", datagen.UniProt(datagen.UniProtConfig{Seed: e.seed, Scale: uniprotScale(e)}), false)
}

func setupSCOPNary(e *env) (instance, error) {
	return setupBatch(e, "scop", datagen.SCOP(datagen.SCOPConfig{Seed: e.seed, Scale: scopScale(e)}), true)
}

// setupBatch writes the generated tables to CSV once and computes the
// oracle — the in-memory engine's INDs over a load of the same CSV.
func setupBatch(e *env, name string, gen *relstore.Database, nary bool) (instance, error) {
	dir, err := e.mkdir("csv-")
	if err != nil {
		return nil, err
	}
	size, err := writeCSV(gen, dir)
	if err != nil {
		return nil, err
	}
	db, err := spider.LoadCSVDir(name, dir)
	if err != nil {
		return nil, err
	}
	var want []string
	if nary {
		inds, _, err := spider.FindNaryINDs(db, spider.NaryOptions{Algorithm: spider.InMemory, MaxArity: 4})
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		for _, d := range inds {
			want = append(want, d.String())
		}
	} else {
		res, err := spider.FindINDs(db, spider.Options{Algorithm: spider.InMemory})
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		for _, d := range res.INDs {
			want = append(want, d.String())
		}
	}
	sort.Strings(want)
	if err := e.resetPeak(); err != nil {
		return nil, err
	}
	return &batchInst{name: name, csvDir: dir, csvMB: float64(size) / 1e6, scratch: e.dir, want: want, nary: nary}, nil
}

// writeCSV dumps every table of db as dir/<table>.csv and returns the
// bytes written.
func writeCSV(db *relstore.Database, dir string) (int64, error) {
	var total int64
	for _, t := range db.Tables() {
		path := filepath.Join(dir, t.Name+".csv")
		f, err := os.Create(path)
		if err != nil {
			return 0, err
		}
		if err := t.DumpCSV(f); err != nil {
			f.Close()
			return 0, err
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
		st, err := os.Stat(path)
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return total, nil
}

func (b *batchInst) roundLen() int { return 1 }
func (b *batchInst) close() error  { return nil }

func (b *batchInst) op(_ int, tr *tracer) opResult {
	// Start each op from a collected heap, as a fresh indfind process
	// does, so that no op pays for the garbage of the one before.
	runtime.GC()
	work, err := os.MkdirTemp(b.scratch, "op-")
	if err != nil {
		return opResult{err: err}
	}
	defer os.RemoveAll(work)
	var r opResult
	var got []string
	switch {
	case b.nary && tr != nil:
		r, got = b.naryTraced(work, tr)
	case b.nary:
		r, got = b.naryOp(work)
	case tr != nil:
		r, got = b.unaryTraced(work, tr)
	default:
		r, got = b.unaryOp(work)
	}
	if r.err == nil && !slices.Equal(got, b.want) {
		r.err = fmt.Errorf("found %d INDs, oracle has %d (first difference: %s)", len(got), len(b.want), firstDiff(got, b.want))
	}
	return r
}

// unaryOp is `indfind -csv DIR -algo spider-merge -format block -sketch
// -out`: load, discover, persist.
func (b *batchInst) unaryOp(work string) (opResult, []string) {
	start := time.Now()
	db, err := spider.LoadCSVDir(b.name, b.csvDir)
	if err != nil {
		return opResult{err: err}, nil
	}
	res, err := spider.FindINDs(db, spider.Options{
		Algorithm: spider.SpiderMerge, WorkDir: work, Format: spider.FormatBlock,
		Store: spider.NewFSStore(work, spider.FormatBlock), SketchPrefilter: true,
	})
	if err != nil {
		return opResult{err: err}, nil
	}
	if err := res.SaveResultSet(filepath.Join(work, "INDS.json")); err != nil {
		return opResult{err: err}, nil
	}
	lat := time.Since(start)
	var got []string
	for _, d := range res.INDs {
		got = append(got, d.String())
	}
	sort.Strings(got)
	st := res.Stats
	return opResult{
		latency: lat, items: st.ItemsRead, bytes: st.BytesRead,
		exact: unaryCounts(st.ItemsRead, st.BytesRead, len(res.INDs), st.Candidates, st.CandidatesPruned),
	}, got
}

func unaryCounts(items, bytes int64, inds, cands, pruned int) []count {
	return []count{
		{"items_read", items}, {"bytes_read", bytes}, {"inds", int64(inds)},
		{"candidates_merged", int64(cands)}, {"candidates_pruned", int64(pruned)},
	}
}

// discovery is one traced unary run: FindINDs' calls for SpiderMerge
// over a block-format FS store with the sketch pre-filter, one span per
// layer.
type discovery struct {
	ds      *store.FS
	attrs   []*ind.Attribute
	cands   []ind.Candidate
	kept    []ind.Candidate
	sst     ind.SketchPretestStats
	res     *ind.Result
	results string
	spans   map[string]int
}

// discover runs the unary pipeline into work. tr may be nil.
func discover(rdb *relstore.Database, work string, tr *tracer, parent int) (*discovery, error) {
	d := &discovery{ds: store.NewFS(work, valfile.FormatBlock), spans: make(map[string]int)}
	step := func(name string, fn func() error) error {
		id := tr.begin(name, parent)
		err := fn()
		tr.end(id)
		d.spans[name] = id
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	var counter valfile.ReadCounter
	err := step("relstore.stats", func() error {
		for _, ref := range rdb.Columns() {
			if _, err := rdb.ColumnStats(ref); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		err = step("ind.collect", func() (err error) {
			d.attrs, err = ind.CollectAttributes(rdb)
			return err
		})
	}
	if err == nil {
		err = step("ind.export", func() error {
			return ind.ExportAttributes(rdb, d.attrs, ind.ExportConfig{
				Dataset: d.ds, Dir: work, Workers: runtime.GOMAXPROCS(0),
				Sort:     extsort.Config{TempDir: work, Format: valfile.FormatBlock},
				Sketches: true, Format: valfile.FormatBlock,
			})
		})
	}
	if err == nil {
		err = step("ind.candidates", func() error {
			d.cands, _ = ind.GenerateCandidates(d.attrs, ind.GenOptions{})
			return nil
		})
	}
	if err == nil {
		err = step("sketch.pretest", func() error {
			d.kept, d.sst = ind.SketchPretest(d.cands, ind.SketchPretestOptions{ExactRefutation: true})
			return nil
		})
	}
	if err == nil {
		err = step("ind.merge", func() (err error) {
			d.res, err = ind.SpiderMerge(d.kept, ind.SpiderMergeOptions{Counter: &counter, Store: d.ds})
			return err
		})
	}
	if err == nil {
		d.results = filepath.Join(work, "INDS.json")
		err = step("spider.persist", func() error {
			rs, err := ind.NewResultSet(rdb.Name, spider.SpiderMerge.String(), d.attrs, d.res.Satisfied)
			if err != nil {
				return err
			}
			return rs.WriteFile(d.results)
		})
	}
	return d, err
}

func (d *discovery) indStrings() []string {
	var out []string
	for _, x := range d.res.Satisfied {
		out = append(out, x.String())
	}
	sort.Strings(out)
	return out
}

// unaryTraced issues the calls FindINDs makes, in order, each under
// its own span, then times the sub-layers hidden inside
// ExportAttributes as standalone calls on the same inputs.
func (b *batchInst) unaryTraced(work string, tr *tracer) (opResult, []string) {
	root := tr.begin("op", 0)
	start := time.Now()
	rdb := relstore.NewDatabase(b.name)
	load := tr.begin("relstore.csv_load", root)
	_, err := rdb.LoadCSVDir(b.csvDir)
	tr.end(load)
	if err != nil {
		return opResult{err: err}, nil
	}
	d, err := discover(rdb, work, tr, root)
	lat := time.Since(start)
	tr.end(root)
	if err != nil {
		return opResult{err: err}, nil
	}
	st := d.res.Stats
	layers := map[string]float64{
		"relstore.csv_load_ms": tr.selfMs(load),
		"relstore.rows":        float64(rdb.TotalRows()),
		"relstore.csv_mb":      b.csvMB,
		"ind.candidates":       float64(len(d.cands)),
		"ind.satisfied":        float64(len(d.res.Satisfied)),
		"ind.useful_ratio":     ratio(len(d.res.Satisfied), len(d.kept)),
		"ind.items_read":       float64(st.ItemsRead),
		"ind.comparisons":      float64(st.Comparisons),
		"ind.max_open_files":   float64(st.MaxOpenFiles),
		"sketch.pruned_ratio":  ratio(d.sst.Pruned, len(d.cands)),
		"sketch.bytes":         float64(d.sst.SketchBytes),
	}
	for name, id := range d.spans {
		layers[name+"_ms"] = tr.selfMs(id)
	}
	written, err := dirBytes(work, "INDS.json")
	if err != nil {
		return opResult{err: err}, nil
	}
	layers["blockfile.write_mb"] = float64(written) / 1e6
	rsInfo, err := os.Stat(d.results)
	if err != nil {
		return opResult{err: err}, nil
	}
	layers["spider.resultset_kb"] = float64(rsInfo.Size()) / 1e3
	if err := standalone(rdb, d, work, tr, layers); err != nil {
		return opResult{err: err}, nil
	}
	return opResult{
		latency: lat, items: st.ItemsRead, bytes: st.BytesRead, layers: layers,
		exact: unaryCounts(st.ItemsRead, st.BytesRead, len(d.res.Satisfied), st.Candidates, d.sst.Pruned),
	}, d.indStrings()
}

// standalone times, outside the op, the work ExportAttributes does in
// one pass: external sort into a store.Mem, sketch build over the
// sorted values, and a full decode of the exported block files. It
// then runs the op's merge again over the in-memory copy, which is
// the merge kernel's cost without block decoding or file I/O.
func standalone(rdb *relstore.Database, d *discovery, work string, tr *tracer, layers map[string]float64) error {
	root := tr.begin("standalone", 0)
	defer tr.end(root)
	mem := store.NewMem()
	memAttrs := make([]*ind.Attribute, len(d.attrs))
	var valuesIn, distinctOut int64
	sortSpan := tr.begin("extsort.sort", root)
	for i, a := range d.attrs {
		sorter := extsort.New(extsort.Config{TempDir: work, Format: valfile.FormatBlock})
		var addErr error
		if _, err := rdb.Table(a.Ref.Table).ScanColumn(a.Ref.Column, func(v value.Value) {
			if addErr != nil || v.IsNull() {
				return
			}
			valuesIn++
			addErr = sorter.Add(v.Canonical())
		}); err != nil || addErr != nil {
			sorter.Discard()
			if err == nil {
				err = addErr
			}
			return fmt.Errorf("extsort %s: %w", a.Ref, err)
		}
		w, err := mem.Create(a.Key)
		if err != nil {
			sorter.Discard()
			return err
		}
		n, _, _, err := sorter.DrainTo(w, nil)
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("extsort %s: %w", a.Ref, err)
		}
		distinctOut += int64(n)
		c := *a
		c.Path = ""
		memAttrs[i] = &c
	}
	tr.end(sortSpan)

	buildSpan := tr.begin("sketch.build", root)
	for _, a := range memAttrs {
		b := sketch.NewBuilder(sketch.Config{}, a.Distinct)
		if err := drain(mem, a.Key, nil, b.Add); err != nil {
			return err
		}
		b.Finish()
	}
	tr.end(buildSpan)

	var decoded valfile.ReadCounter
	decodeSpan := tr.begin("blockfile.decode", root)
	for _, a := range d.attrs {
		if err := drain(d.ds, a.StoreKey(), &decoded, nil); err != nil {
			return err
		}
	}
	tr.end(decodeSpan)

	memCands := make([]ind.Candidate, len(d.kept))
	for i, c := range d.kept {
		memCands[i] = ind.Candidate{Dep: memAttrs[c.Dep.ID], Ref: memAttrs[c.Ref.ID]}
	}
	mergeSpan := tr.begin("ind.merge_mem", root)
	mres, err := ind.SpiderMerge(memCands, ind.SpiderMergeOptions{Store: mem, Counter: &valfile.ReadCounter{}})
	tr.end(mergeSpan)
	if err != nil {
		return fmt.Errorf("merge over store.Mem: %w", err)
	}
	if len(mres.Satisfied) != len(d.res.Satisfied) {
		return fmt.Errorf("merge over store.Mem found %d INDs, over block files %d", len(mres.Satisfied), len(d.res.Satisfied))
	}
	decodeMs := tr.durMs(decodeSpan)
	layers["extsort.sort_ms"] = tr.durMs(sortSpan)
	layers["extsort.values_in"] = float64(valuesIn)
	layers["extsort.distinct_out"] = float64(distinctOut)
	layers["sketch.build_ms"] = tr.durMs(buildSpan)
	layers["blockfile.decode_ms"] = decodeMs
	layers["blockfile.decode_mvals_per_s"] = float64(decoded.Total()) / decodeMs / 1e3
	layers["ind.merge_mem_ms"] = tr.durMs(mergeSpan)
	return nil
}

// drain reads key's whole value set, passing each value to fn.
func drain(ds store.Dataset, key string, counter *valfile.ReadCounter, fn func(string)) error {
	cur, err := ds.Open(key, counter)
	if err != nil {
		return err
	}
	defer cur.Close()
	for {
		v, ok := cur.Next()
		if !ok {
			break
		}
		if fn != nil {
			fn(v)
		}
	}
	return cur.Err()
}

// naryOp is `indfind -csv DIR -nary 4 -algo spider-merge -format block`
// without the unary printout: load, then levelwise n-ary discovery.
func (b *batchInst) naryOp(work string) (opResult, []string) {
	start := time.Now()
	db, err := spider.LoadCSVDir(b.name, b.csvDir)
	if err != nil {
		return opResult{err: err}, nil
	}
	inds, st, err := spider.FindNaryINDs(db, spider.NaryOptions{
		Algorithm: spider.SpiderMerge, MaxArity: 4, WorkDir: work, Format: spider.FormatBlock,
		Store: spider.NewFSStore(work, spider.FormatBlock),
	})
	if err != nil {
		return opResult{err: err}, nil
	}
	lat := time.Since(start)
	var got []string
	for _, d := range inds {
		got = append(got, d.String())
	}
	sort.Strings(got)
	return opResult{
		latency: lat, items: st.ItemsRead, bytes: st.BytesRead,
		exact: naryCounts(st.ItemsRead, st.BytesRead, len(inds), st.Candidates),
	}, got
}

func naryCounts(items, bytes int64, inds, cands int) []count {
	return []count{{"items_read", items}, {"bytes_read", bytes}, {"inds", int64(inds)}, {"candidates", int64(cands)}}
}

// naryTraced issues the calls FindNaryINDs makes; its levels become
// spans from the engine's own per-level progress reports.
func (b *batchInst) naryTraced(work string, tr *tracer) (opResult, []string) {
	root := tr.begin("op", 0)
	start := time.Now()
	rdb := relstore.NewDatabase(b.name)
	load := tr.begin("relstore.csv_load", root)
	_, err := rdb.LoadCSVDir(b.csvDir)
	tr.end(load)
	if err != nil {
		return opResult{err: err}, nil
	}
	stats := tr.begin("relstore.stats", root)
	for _, ref := range rdb.Columns() {
		if _, err := rdb.ColumnStats(ref); err != nil {
			return opResult{err: err}, nil
		}
	}
	tr.end(stats)
	type level struct {
		arity int
		start time.Time
		end   time.Time
	}
	var mu sync.Mutex
	var levels []level
	ds := store.NewFS(work, valfile.FormatBlock)
	dn := tr.begin("nary.discover", root)
	res, err := ind.DiscoverNary(rdb, ind.NaryOptions{
		MaxArity: 4, Algorithm: ind.NaryMerge, WorkDir: work,
		Sort: extsort.Config{Format: valfile.FormatBlock}, Scratch: ds, Store: ds,
		LevelProgress: func(p ind.LevelProgress) {
			now := time.Now()
			mu.Lock()
			levels = append(levels, level{p.Arity, now.Add(-p.Duration), now})
			mu.Unlock()
		},
	})
	tr.end(dn)
	lat := time.Since(start)
	tr.end(root)
	if err != nil {
		return opResult{err: err}, nil
	}
	for _, l := range levels {
		tr.add(fmt.Sprintf("nary.level%d", l.arity), dn, l.start, l.end)
	}
	st := res.Stats
	layers := map[string]float64{
		"relstore.csv_load_ms": tr.selfMs(load),
		"relstore.stats_ms":    tr.selfMs(stats),
		"relstore.rows":        float64(rdb.TotalRows()),
		"relstore.csv_mb":      b.csvMB,
	}
	var tupleBytes int64
	for k := 1; k <= 4 && k < len(st.LevelDurations); k++ {
		layers[fmt.Sprintf("nary.level%d_ms", k)] = ms(st.LevelDurations[k])
		if k >= 2 {
			layers[fmt.Sprintf("nary.level%d_items", k)] = float64(st.ItemsReadByArity[k])
			layers[fmt.Sprintf("nary.level%d_candidates", k)] = float64(st.CandidatesByArity[k])
			tupleBytes += st.BytesReadByArity[k]
		}
	}
	layers["nary.tuple_mb"] = float64(tupleBytes) / 1e6
	var got []string
	cands := 0
	for _, n := range st.CandidatesByArity {
		cands += n
	}
	for _, d := range res.Satisfied {
		got = append(got, naryString(d))
	}
	sort.Strings(got)
	return opResult{
		latency: lat, items: st.ItemsRead, bytes: st.BytesRead, layers: layers,
		exact: naryCounts(st.ItemsRead, st.BytesRead, len(res.Satisfied), cands),
	}, got
}

// naryString renders d as spider.NaryIND.String does.
func naryString(d ind.NaryIND) string {
	n := spider.NaryIND{}
	for i := range d.Dep {
		n.Dep = append(n.Dep, spider.ColumnRef{Table: d.Dep[i].Table, Column: d.Dep[i].Column})
		n.Ref = append(n.Ref, spider.ColumnRef{Table: d.Ref[i].Table, Column: d.Ref[i].Column})
	}
	return n.String()
}

// dirBytes sums the sizes of the files under dir, except skip.
func dirBytes(dir, skip string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || e.Name() == skip {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// firstDiff names the first entry present in one list but not the other.
func firstDiff(got, want []string) string {
	for _, g := range got {
		if _, ok := slices.BinarySearch(want, g); !ok {
			return "unexpected " + g
		}
	}
	for _, w := range want {
		if _, ok := slices.BinarySearch(got, w); !ok {
			return "missing " + w
		}
	}
	return "same set, different multiplicity"
}
