package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"time"

	"spider/internal/datagen"
	"spider/internal/ind"
	"spider/internal/relstore"
	"spider/internal/serve"
	"spider/internal/sketch"
	"spider/internal/value"
)

// probeRound is the size of serve-probe's fixed request sequence,
// which one client replays. Its member and containment targets far
// outnumber the response cache's 1024 entries, so they mostly miss;
// the per-attribute IND lookups fit, so they mostly hit.
func probeRound(e *env) int { return int(pick(e, 4000, 400)) }

// request is one entry of the round. check verifies a response body
// against the oracle.
type request struct {
	kind  string
	path  string
	check func(body []byte) (checked, error)
}

// checked is what a verified response reports.
type checked struct {
	items    int64
	exact    []count
	bloom    bool
	engineNs int64
}

// serveInst is a serving workload: one daemon over loopback HTTP and
// one keep-alive client in a closed loop over the round.
type serveInst struct {
	name   string
	spec   serve.DatasetSpec
	srv    *serve.Server
	done   chan error
	client *http.Client
	base   string
	reqs   []request
	// seen holds each position's first verified response; a later
	// response must be byte-identical. Verify responses carry their own
	// duration and are checked every time instead.
	seen []*seenResponse

	// Traced runs only: a second, uncached server over the same export
	// for handler calls without the network, and the first traced op's
	// response-cache counters.
	direct     *serve.Server
	layerBase  serve.CacheMetrics
	stageMs    float64
	snapshotMB float64
}

type seenResponse struct {
	body []byte
	c    checked
}

func setupServeProbe(e *env) (instance, error) {
	return setupServe(e, "uniprot", datagen.UniProt(datagen.UniProtConfig{Seed: e.seed, Scale: uniprotScale(e)}), probeRequests)
}

func setupPDBVerify(e *env) (instance, error) {
	gen := datagen.PDB(datagen.PDBConfig{Seed: e.seed, Scale: pdbScale(e), Tables: 39})
	return setupServe(e, "pdb", gen, verifyRequests)
}

// oracle holds the reference answers for a served dataset.
type oracle struct {
	name  string
	rdb   *relstore.Database
	attrs []*ind.Attribute
	sets  map[int][]string
	cands []ind.Candidate
	inds  []ind.IND
	// sat holds the satisfied INDs in the a ⊆ b notation.
	sat map[string]bool
}

// setupServe exports the dataset as `indfind -algo spider-merge -format
// block -sketch -out` does, checks the export against the in-memory
// reference, boots the daemon with preloading, and builds the round.
func setupServe(e *env, name string, rdb *relstore.Database, build func(*oracle, *rand.Rand, *env) ([]request, error)) (instance, error) {
	work, err := e.mkdir("export-")
	if err != nil {
		return nil, err
	}
	d, err := discover(rdb, work, nil, 0)
	if err != nil {
		return nil, err
	}
	o := &oracle{name: name, rdb: rdb, attrs: d.attrs, sets: make(map[int][]string), cands: d.cands, sat: make(map[string]bool)}
	for _, a := range d.attrs {
		if o.sets[a.ID], err = rdb.Table(a.Ref.Table).DistinctCanonical(a.Ref.Column); err != nil {
			return nil, err
		}
	}
	o.inds = ind.Reference(d.cands, o.sets).Satisfied
	var want []string
	for _, x := range o.inds {
		o.sat[x.String()] = true
		want = append(want, x.String())
	}
	sort.Strings(want)
	if got := d.indStrings(); !slices.Equal(got, want) {
		return nil, fmt.Errorf("exported result set disagrees with the in-memory oracle: %s", firstDiff(got, want))
	}
	reqs, err := build(o, rand.New(rand.NewSource(e.seed)), e)
	if err != nil {
		return nil, err
	}

	if err := e.resetPeak(); err != nil {
		return nil, err
	}
	s := &serveInst{name: name, spec: serve.DatasetSpec{Name: name, Dir: work, Preload: true}, reqs: reqs}
	s.seen = make([]*seenResponse, len(reqs))
	if s.srv, err = serve.New(serve.Config{Specs: []serve.DatasetSpec{s.spec}}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.done = make(chan error, 1)
	go func() { s.done <- s.srv.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   time.Minute,
	}
	return s, nil
}

func (s *serveInst) roundLen() int { return len(s.reqs) }

func (s *serveInst) close() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

func (s *serveInst) op(i int, tr *tracer) opResult {
	pos := i % len(s.reqs)
	rq := s.reqs[pos]
	if tr != nil && s.direct == nil {
		if err := s.startTracing(); err != nil {
			return opResult{err: err}
		}
	}
	root := tr.begin("serve.request", 0)
	start := time.Now()
	resp, err := s.client.Get(s.base + rq.path)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	lat := time.Since(start)
	tr.end(root)
	if err != nil {
		return opResult{err: err}
	}
	if resp.StatusCode/100 != 2 {
		return opResult{err: fmt.Errorf("%s: HTTP %d: %s", rq.path, resp.StatusCode, bytes.TrimSpace(body))}
	}
	r := opResult{latency: lat, bytes: int64(len(body))}
	var c checked
	if seen := s.seen[pos]; seen != nil && rq.kind != "verify" {
		if !bytes.Equal(body, seen.body) {
			return opResult{err: fmt.Errorf("%s: response changed from the first, verified one", rq.path)}
		}
		c = seen.c
	} else {
		if c, err = rq.check(body); err != nil {
			return opResult{err: fmt.Errorf("%s: %w", rq.path, err)}
		}
		if seen == nil {
			s.seen[pos] = &seenResponse{body: body, c: c}
		}
	}
	r.items, r.exact = c.items, c.exact
	if tr == nil {
		return r
	}
	// The same request straight into the uncached server's handler:
	// the endpoint's cost without the network.
	h := tr.begin("serve."+rq.kind+".handler", 0)
	rec := httptest.NewRecorder()
	hstart := time.Now()
	s.direct.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, rq.path, nil))
	hdur := time.Since(hstart)
	tr.end(h)
	if rec.Code != http.StatusOK {
		r.err = fmt.Errorf("%s: direct handler: HTTP %d", rq.path, rec.Code)
		return r
	}
	if rq.kind != "verify" && !bytes.Equal(rec.Body.Bytes(), s.seen[pos].body) {
		r.err = fmt.Errorf("%s: direct handler answered differently from the daemon", rq.path)
		return r
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	r.layers = map[string]float64{
		"serve." + rq.kind + ".handler_p50_us": us(hdur),
		"serve.http_overhead_us":               us(lat - hdur),
	}
	if rq.kind == "verify" {
		r.layers["serve.verify_engine_p50_us"] = float64(c.engineNs) / 1e3
		r.layers["serve.verify_items"] = float64(c.items)
	}
	return r
}

// clientCost replays the round against a stand-in server that answers
// each request with the body the daemon gave it first, and returns the
// allocations per op: the client, the answer checks and a bare
// net/http server. Subtracted from the measured window's, what is left
// are the daemon's own allocations. The first round opens the
// connection and is not counted.
func (s *serveInst) clientCost() (float64, float64, error) {
	bodies := make(map[string][]byte, len(s.reqs))
	for pos, rq := range s.reqs {
		bodies[rq.path] = s.seen[pos].body
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	stub := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, ok := bodies[r.RequestURI]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})}
	done := make(chan error, 1)
	go func() { done <- stub.Serve(ln) }()
	daemon := s.base
	s.base = "http://" + ln.Addr().String()
	var m0, m1 runtime.MemStats
	for round := 0; round < 2 && err == nil; round++ {
		runtime.ReadMemStats(&m0)
		for i := range s.reqs {
			if err = s.op(i, nil).err; err != nil {
				break
			}
		}
		runtime.ReadMemStats(&m1)
	}
	s.base = daemon
	if cerr := stub.Close(); err == nil {
		err = cerr
	}
	if serr := <-done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	n := float64(len(s.reqs))
	return float64(m1.TotalAlloc-m0.TotalAlloc) / n, float64(m1.Mallocs-m0.Mallocs) / n, err
}

// startTracing stages the uncached server (timed: the store staging
// layer) and notes the response-cache counters the trace window starts
// from.
func (s *serveInst) startTracing() error {
	start := time.Now()
	direct, err := serve.New(serve.Config{Specs: []serve.DatasetSpec{s.spec}, CacheSize: -1})
	if err != nil {
		return err
	}
	s.stageMs = ms(time.Since(start))
	d, _ := direct.State().Dataset(s.name)
	var total int64
	for _, a := range d.Attrs {
		if err := drain(d.Snap, a.StoreKey(), nil, func(v string) { total += int64(len(v)) }); err != nil {
			return err
		}
	}
	s.snapshotMB = float64(total) / 1e6
	s.direct = direct
	s.layerBase, err = s.cacheMetrics()
	return err
}

func (s *serveInst) cacheMetrics() (serve.CacheMetrics, error) {
	rec := httptest.NewRecorder()
	s.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var m serve.MetricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		return serve.CacheMetrics{}, fmt.Errorf("/metrics: %w", err)
	}
	return m.Cache, nil
}

// layerTotals reports the traced run's whole-window serving layers.
func (s *serveInst) layerTotals() (map[string]float64, error) {
	end, err := s.cacheMetrics()
	if err != nil {
		return nil, err
	}
	hits, misses := end.Hits-s.layerBase.Hits, end.Misses-s.layerBase.Misses
	members, bloom := 0, 0
	for pos, rq := range s.reqs {
		if rq.kind == "member" && s.seen[pos] != nil {
			members++
			if s.seen[pos].c.bloom {
				bloom++
			}
		}
	}
	return map[string]float64{
		"store.stage_ms":           s.stageMs,
		"store.snapshot_mb":        s.snapshotMB,
		"serve.cache_hit_ratio":    ratio(int(hits), int(hits+misses)),
		"serve.member_bloom_ratio": ratio(bloom, members),
	}, nil
}

// probeRequests builds the serve-probe round: 60% /v1/member (half
// present, half absent values), 25% /v1/containment, 15% /v1/inds,
// shuffled. Member and containment targets are distinct within the
// round.
func probeRequests(o *oracle, rng *rand.Rand, e *env) ([]request, error) {
	n := probeRound(e)
	var eligible []*ind.Attribute
	for _, a := range o.attrs {
		if a.Sketch != nil && a.NonNull > 0 && a.Kind != value.Bool {
			eligible = append(eligible, a)
		}
	}
	if len(eligible) < 2 {
		return nil, fmt.Errorf("only %d attributes with sketches", len(eligible))
	}
	nMember, nCont := n*60/100, n*25/100
	var reqs []request
	used := make(map[string]bool)
	for tries := 0; len(reqs) < nMember; tries++ {
		if tries > 100*n {
			return nil, fmt.Errorf("could not draw %d distinct member probes", nMember)
		}
		a := eligible[rng.Intn(len(eligible))]
		raw, ok := sampleValue(o.rdb, a, rng)
		if !ok {
			continue
		}
		if len(reqs)%2 == 1 {
			raw = absentVariant(a.Kind, raw, rng)
		}
		v := value.Parse(raw, a.Kind)
		key := a.Ref.String() + "\x00" + raw
		if v.IsNull() || used[key] {
			continue
		}
		used[key] = true
		reqs = append(reqs, memberRequest(o, a, raw, v.Canonical()))
	}
	for tries := 0; len(reqs) < nMember+nCont; tries++ {
		if tries > 100*n {
			return nil, fmt.Errorf("could not draw %d distinct containment pairs", nCont)
		}
		dep, ref := eligible[rng.Intn(len(eligible))], eligible[rng.Intn(len(eligible))]
		key := dep.Ref.String() + "\x00" + ref.Ref.String()
		if dep == ref || used[key] {
			continue
		}
		used[key] = true
		reqs = append(reqs, containmentRequest(o, dep, ref))
	}
	for len(reqs) < n {
		reqs = append(reqs, indsRequest(o, o.attrs[rng.Intn(len(o.attrs))]))
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs, nil
}

// sampleValue returns the raw text of a random non-NULL value of a.
func sampleValue(db *relstore.Database, a *ind.Attribute, rng *rand.Rand) (string, bool) {
	t := db.Table(a.Ref.Table)
	col := t.ColumnIndex(a.Ref.Column)
	for i := 0; i < 32; i++ {
		if v := t.Row(rng.Intn(t.RowCount()))[col]; !v.IsNull() {
			return v.String(), true
		}
	}
	return "", false
}

// absentVariant turns a present value into one of the same kind that
// is almost surely absent; the oracle decides either way.
func absentVariant(k value.Kind, raw string, rng *rand.Rand) string {
	switch k {
	case value.Int:
		n, _ := strconv.ParseInt(raw, 10, 64)
		return strconv.FormatInt(n+1_000_000_007+rng.Int63n(1_000_000_000), 10)
	case value.Float:
		f, _ := strconv.ParseFloat(raw, 64)
		return strconv.FormatFloat(f+1e9+rng.Float64(), 'g', -1, 64)
	default:
		return raw + "~" + strconv.Itoa(rng.Intn(1_000_000_000))
	}
}

func (o *oracle) query(path string, kv ...string) string {
	q := url.Values{"dataset": {o.name}}
	for i := 0; i+1 < len(kv); i += 2 {
		q.Set(kv[i], kv[i+1])
	}
	return path + "?" + q.Encode()
}

func memberRequest(o *oracle, a *ind.Attribute, raw, canonical string) request {
	_, want := slices.BinarySearch(o.sets[a.ID], canonical)
	return request{kind: "member", path: o.query("/v1/member", "attr", a.Ref.String(), "value", raw),
		check: func(body []byte) (checked, error) {
			var r serve.MemberResponse
			if err := json.Unmarshal(body, &r); err != nil {
				return checked{}, err
			}
			if r.Member != want || r.Canonical != canonical {
				return checked{}, fmt.Errorf("member %v (canonical %q), oracle says %v (%q)", r.Member, r.Canonical, want, canonical)
			}
			// Blooms have no false negatives: a present value must reach
			// the cursor.
			if r.Source != "cursor" && (want || r.Source != "bloom") {
				return checked{}, fmt.Errorf("source %q for a value the oracle says is present=%v", r.Source, want)
			}
			c := checked{bloom: r.Source == "bloom"}
			if !c.bloom {
				c.items = 1
			}
			c.exact = []count{{"cursor_lookups", c.items}, {"response_bytes", int64(len(body))}}
			return c, nil
		}}
}

func containmentRequest(o *oracle, dep, ref *ind.Attribute) request {
	p := sketch.Probe(dep.Sketch, ref.Sketch)
	included := o.sat[ind.Candidate{Dep: dep, Ref: ref}.String()]
	return request{kind: "containment", path: o.query("/v1/containment", "dep", dep.Ref.String(), "ref", ref.Ref.String()),
		check: func(body []byte) (checked, error) {
			var r serve.ContainmentResponse
			if err := json.Unmarshal(body, &r); err != nil {
				return checked{}, err
			}
			if r.Probed != p.Probed || r.Hits != p.Hits || r.DefiniteMisses != p.DefiniteMisses() ||
				r.Estimate != p.Containment() || r.DepDistinct != dep.Distinct || r.RefDistinct != ref.Distinct {
				return checked{}, fmt.Errorf("probe %+v, oracle probe %+v", r, p)
			}
			if included && r.RefutesExact {
				return checked{}, fmt.Errorf("refutes a satisfied IND")
			}
			return checked{exact: []count{{"response_bytes", int64(len(body))}}}, nil
		}}
}

func indsRequest(o *oracle, a *ind.Attribute) request {
	name := a.Ref.String()
	var want []string
	for _, x := range o.inds {
		if x.Dep.String() == name || x.Ref.String() == name {
			want = append(want, x.String())
		}
	}
	sort.Strings(want)
	return request{kind: "inds", path: o.query("/v1/inds", "attr", name),
		check: func(body []byte) (checked, error) {
			var r serve.INDsResponse
			if err := json.Unmarshal(body, &r); err != nil {
				return checked{}, err
			}
			var got []string
			for _, x := range r.INDs {
				got = append(got, x.Dep+" ⊆ "+x.Ref)
			}
			sort.Strings(got)
			if r.Total != len(want) || !slices.Equal(got, want) {
				return checked{}, fmt.Errorf("%d INDs, oracle has %d", r.Total, len(want))
			}
			return checked{exact: []count{{"response_bytes", int64(len(body))}}}, nil
		}}
}

// verifyRequests builds the pdb-verify round: every satisfied IND once
// (a full two-cursor scan each), plus a quarter as many refuted batch
// candidates (which stop at the first missing value), shuffled — an
// 80/20 mix. Covering every IND instead of sampling them keeps the work
// per round from depending on which INDs a seed happens to draw.
func verifyRequests(o *oracle, rng *rand.Rand, _ *env) ([]request, error) {
	var refuted []ind.Candidate
	for _, c := range o.cands {
		if !o.sat[c.String()] {
			refuted = append(refuted, c)
		}
	}
	if len(o.inds) == 0 || len(refuted) == 0 {
		return nil, fmt.Errorf("%d satisfied INDs and %d refuted candidates: need both", len(o.inds), len(refuted))
	}
	var reqs []request
	for _, x := range o.inds {
		reqs = append(reqs, verifyRequest(o, x.Dep.String(), x.Ref.String(), true))
	}
	for i := 0; i < (len(o.inds)+3)/4; i++ {
		c := refuted[rng.Intn(len(refuted))]
		reqs = append(reqs, verifyRequest(o, c.Dep.Ref.String(), c.Ref.Ref.String(), false))
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs, nil
}

func verifyRequest(o *oracle, dep, ref string, want bool) request {
	return request{kind: "verify", path: o.query("/v1/verify", "dep", dep, "ref", ref),
		check: func(body []byte) (checked, error) {
			var r serve.VerifyResponse
			if err := json.Unmarshal(body, &r); err != nil {
				return checked{}, err
			}
			if r.Satisfied != want || r.Discovered != want || !r.MatchesDiscovery || !r.BatchCandidate {
				return checked{}, fmt.Errorf("satisfied %v discovered %v matches %v candidate %v, oracle says satisfied %v",
					r.Satisfied, r.Discovered, r.MatchesDiscovery, r.BatchCandidate, want)
			}
			// The body embeds the engine's own duration, whose digits
			// vary; the rest of its length must repeat.
			fixed := int64(len(body) - len(strconv.FormatInt(r.DurationNs, 10)))
			return checked{items: r.ItemsRead, engineNs: r.DurationNs,
				exact: []count{{"items_read", r.ItemsRead}, {"response_bytes_less_duration", fixed}}}, nil
		}}
}
