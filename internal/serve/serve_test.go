package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spider/internal/ind"
	"spider/internal/relstore"
	"spider/internal/store"
	"spider/internal/value"
)

// buildDB constructs the two-table fixture with known inclusion
// structure:
//
//	child.parent_id ⊆ parent.id      (a foreign key)
//	child.code      ⊆ parent.code    (accidental inclusion)
//	parent.id       ⊄ child.parent_id (child misses ids 7..9)
func buildDB(t testing.TB) *relstore.Database {
	t.Helper()
	db := relstore.NewDatabase("unit")
	parent := db.MustCreateTable("parent", []relstore.Column{
		{Name: "id", Kind: value.Int},
		{Name: "code", Kind: value.String},
	})
	child := db.MustCreateTable("child", []relstore.Column{
		{Name: "cid", Kind: value.Int},
		{Name: "parent_id", Kind: value.Int},
		{Name: "code", Kind: value.String},
	})
	for i := 0; i < 10; i++ {
		parent.MustInsert(value.NewInt(int64(i)), value.NewString(fmt.Sprintf("C%02d", i)))
	}
	for i := 0; i < 20; i++ {
		child.MustInsert(
			value.NewInt(int64(100+i)),
			value.NewInt(int64(i%7)), // only parents 0..6 referenced
			value.NewString(fmt.Sprintf("C%02d", i%5)),
		)
	}
	return db
}

// fixture is one exported-and-discovered dataset plus the batch run the
// server must agree with.
type fixture struct {
	mem   *store.Mem
	attrs []*ind.Attribute
	cands []ind.Candidate
	res   *ind.Result
	rs    *ind.ResultSet
}

// buildFixture runs the full batch pipeline — export with sketches,
// candidate generation, SPIDER merge — against an in-memory store, then
// persists the outcome as a result set.
func buildFixture(t testing.TB) *fixture {
	t.Helper()
	db := buildDB(t)
	mem := store.NewMem()
	attrs, err := ind.Prepare(db, ind.ExportConfig{
		Dataset:  mem,
		Sketches: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cands, _ := ind.GenerateCandidates(attrs, ind.GenOptions{})
	res, err := ind.SpiderMerge(cands, ind.SpiderMergeOptions{Store: mem})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ind.NewResultSet("unit", "spider-merge", attrs, res.Satisfied)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{mem: mem, attrs: attrs, cands: cands, res: res, rs: rs}
}

// newTestServer builds a server over the fixture's in-memory source.
func newTestServer(t testing.TB, fx *fixture) *Server {
	t.Helper()
	s, err := New(Config{Sources: []Source{{Name: "unit", Base: fx.mem, Results: fx.rs}}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// doJSON routes one request through the handler and decodes the JSON
// response body.
func doJSON(t testing.TB, h http.Handler, method, target string, body string) (int, map[string]interface{}) {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	out := map[string]interface{}{}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: non-JSON response %q: %v", method, target, w.Body.String(), err)
	}
	return w.Code, out
}

func TestHealthAndDatasets(t *testing.T) {
	s := newTestServer(t, buildFixture(t))
	code, body := doJSON(t, s.Handler(), "GET", "/healthz", "")
	if code != 200 || body["status"] != "ok" || body["generation"] != float64(1) {
		t.Fatalf("healthz = %d %v", code, body)
	}
	code, body = doJSON(t, s.Handler(), "GET", "/v1/datasets", "")
	if code != 200 {
		t.Fatalf("datasets = %d %v", code, body)
	}
	ds := body["datasets"].([]interface{})
	if len(ds) != 1 {
		t.Fatalf("datasets = %v", ds)
	}
	d := ds[0].(map[string]interface{})
	if d["name"] != "unit" || d["algorithm"] != "spider-merge" || d["attributes"] != float64(5) {
		t.Fatalf("dataset = %v", d)
	}
}

func TestAttrs(t *testing.T) {
	s := newTestServer(t, buildFixture(t))
	code, body := doJSON(t, s.Handler(), "GET", "/v1/attrs?dataset=unit", "")
	if code != 200 {
		t.Fatalf("attrs = %d %v", code, body)
	}
	byName := map[string]map[string]interface{}{}
	for _, raw := range body["attributes"].([]interface{}) {
		a := raw.(map[string]interface{})
		byName[a["attr"].(string)] = a
	}
	pid := byName["parent.id"]
	if pid == nil || pid["distinct"] != float64(10) || pid["unique"] != true || pid["sketch"] != true {
		t.Fatalf("parent.id = %v", pid)
	}
	if cpid := byName["child.parent_id"]; cpid == nil || cpid["distinct"] != float64(7) {
		t.Fatalf("child.parent_id = %v", byName["child.parent_id"])
	}
}

func TestMember(t *testing.T) {
	fx := buildFixture(t)
	s := newTestServer(t, fx)
	h := s.Handler()

	// A value present in the column: bloom hit, cursor confirms.
	code, body := doJSON(t, h, "GET", "/v1/member?attr=parent.id&value=3", "")
	if code != 200 || body["member"] != true {
		t.Fatalf("member(parent.id, 3) = %d %v", code, body)
	}
	if body["source"] != "cursor" {
		t.Fatalf("present value must be confirmed by cursor, got %v", body["source"])
	}

	// An absent value: member false whether the bloom refutes it or the
	// cursor comes back empty after a false positive.
	code, body = doJSON(t, h, "GET", "/v1/member?attr=parent.id&value=12345", "")
	if code != 200 || body["member"] != false {
		t.Fatalf("member(parent.id, 12345) = %d %v", code, body)
	}
	if src := body["source"]; src != "bloom" && src != "cursor" {
		t.Fatalf("source = %v", src)
	}

	// An absent value the bloom filter cannot refute (a false positive)
	// reaches the value set, which answers no. parent.id holds 0..9.
	fp := bloomFalsePositive(t, fx, "parent.id", 10)
	code, body = doJSON(t, h, "GET", "/v1/member?attr=parent.id&value="+fp, "")
	if code != 200 || body["member"] != false || body["source"] != "cursor" {
		t.Fatalf("member(parent.id, %s) = %d %v; want member false from the cursor", fp, code, body)
	}

	// Probe values canonicalise through the attribute's kind: "03" is
	// the integer 3.
	code, body = doJSON(t, h, "GET", "/v1/member?attr=parent.id&value=03", "")
	if code != 200 || body["member"] != true {
		t.Fatalf("member(parent.id, 03) = %d %v", code, body)
	}

	// The empty string is NULL for an integer column — never a member.
	code, body = doJSON(t, h, "GET", "/v1/member?attr=parent.id&value=", "")
	if code != 200 || body["member"] != false || body["source"] != "null" {
		t.Fatalf("member(parent.id, \"\") = %d %v", code, body)
	}

	// String columns match exact canonical text.
	code, body = doJSON(t, h, "GET", "/v1/member?attr=child.code&value=C03", "")
	if code != 200 || body["member"] != true {
		t.Fatalf("member(child.code, C03) = %d %v", code, body)
	}
	code, body = doJSON(t, h, "GET", "/v1/member?attr=child.code&value=C05", "")
	if code != 200 || body["member"] != false {
		t.Fatalf("member(child.code, C05) = %d %v", code, body)
	}
}

// bloomFalsePositive returns the first integer from from on that the
// integer attribute's bloom filter admits; from must lie above the
// attribute's values.
func bloomFalsePositive(t *testing.T, fx *fixture, name string, from int64) string {
	t.Helper()
	for _, a := range fx.attrs {
		if a.Ref.String() != name {
			continue
		}
		for i := from; i < from+1_000_000; i++ {
			if a.Sketch.MayContainValue(value.NewInt(i).Canonical()) {
				return fmt.Sprint(i)
			}
		}
		t.Fatalf("%s: no bloom false positive in 1e6 probes", name)
	}
	t.Fatalf("fixture has no attribute %s", name)
	return ""
}

func TestMemberErrors(t *testing.T) {
	s := newTestServer(t, buildFixture(t))
	h := s.Handler()
	for _, tc := range []struct {
		target string
		code   int
	}{
		{"/v1/member?value=3", http.StatusBadRequest},
		{"/v1/member?attr=parent.id", http.StatusBadRequest},
		{"/v1/member?attr=parent.nope&value=3", http.StatusNotFound},
		{"/v1/member?dataset=ghost&attr=parent.id&value=3", http.StatusNotFound},
		{"/v1/member?attr=parent.id&value=3&dataset=", http.StatusOK},
	} {
		code, body := doJSON(t, h, "GET", tc.target, "")
		if code != tc.code {
			t.Errorf("%s = %d %v, want %d", tc.target, code, body, tc.code)
		}
		if code != 200 && body["error"] == "" {
			t.Errorf("%s: error envelope missing", tc.target)
		}
	}
}

func TestContainment(t *testing.T) {
	s := newTestServer(t, buildFixture(t))
	h := s.Handler()

	// child.parent_id ⊆ parent.id holds exactly, so no sampled value may
	// be a definite miss.
	code, body := doJSON(t, h, "GET", "/v1/containment?dep=child.parent_id&ref=parent.id", "")
	if code != 200 {
		t.Fatalf("containment = %d %v", code, body)
	}
	if body["definite_misses"] != float64(0) || body["refutes_exact"] != false {
		t.Fatalf("true IND refuted: %v", body)
	}
	if body["probed"].(float64) <= 0 {
		t.Fatalf("probed = %v", body["probed"])
	}

	// parent.id ⊄ child.parent_id: ids 7..9 are missing, so the sketch
	// estimate must come in below 1 (bloom misses are definite).
	code, body = doJSON(t, h, "GET", "/v1/containment?dep=parent.id&ref=child.parent_id", "")
	if code != 200 {
		t.Fatalf("containment = %d %v", code, body)
	}
	if est := body["estimate"].(float64); est >= 1 {
		t.Errorf("estimate for a false IND = %v", est)
	}

	code, body = doJSON(t, h, "GET", "/v1/containment?dep=parent.id&ref=parent.id", "")
	if code != http.StatusBadRequest {
		t.Fatalf("self containment = %d %v", code, body)
	}
}

func TestINDs(t *testing.T) {
	fx := buildFixture(t)
	s := newTestServer(t, fx)
	h := s.Handler()

	code, body := doJSON(t, h, "GET", "/v1/inds", "")
	if code != 200 {
		t.Fatalf("inds = %d %v", code, body)
	}
	if body["total"] != float64(len(fx.res.Satisfied)) {
		t.Fatalf("total = %v, want %d", body["total"], len(fx.res.Satisfied))
	}
	got := map[string]bool{}
	for _, raw := range body["inds"].([]interface{}) {
		r := raw.(map[string]interface{})
		got[r["dep"].(string)+" ⊆ "+r["ref"].(string)] = true
	}
	if !got["child.parent_id ⊆ parent.id"] {
		t.Fatalf("planted IND missing from %v", got)
	}

	code, body = doJSON(t, h, "GET", "/v1/inds?ref=parent.id", "")
	if code != 200 {
		t.Fatalf("inds?ref = %d %v", code, body)
	}
	for _, raw := range body["inds"].([]interface{}) {
		if r := raw.(map[string]interface{}); r["ref"] != "parent.id" {
			t.Errorf("filter leak: %v", r)
		}
	}

	code, body = doJSON(t, h, "GET", "/v1/inds?limit=1", "")
	if code != 200 || len(body["inds"].([]interface{})) != 1 {
		t.Fatalf("inds?limit=1 = %d %v", code, body)
	}
	if body["total"] != float64(len(fx.res.Satisfied)) {
		t.Fatalf("limit must not shrink total: %v", body["total"])
	}

	if code, _ := doJSON(t, h, "GET", "/v1/inds?limit=bogus", ""); code != http.StatusBadRequest {
		t.Fatalf("bad limit = %d", code)
	}
}

// TestVerifyMatchesBatch re-verifies every candidate the batch run
// tested, through every engine, and requires verdicts identical to the
// loaded result set — the acceptance criterion for /v1/verify.
func TestVerifyMatchesBatch(t *testing.T) {
	fx := buildFixture(t)
	s := newTestServer(t, fx)
	h := s.Handler()

	batch := map[string]bool{}
	for _, d := range fx.res.Satisfied {
		batch[d.String()] = true
	}
	for _, cand := range fx.cands {
		name := cand.Dep.Ref.String() + " ⊆ " + cand.Ref.Ref.String()
		want := batch[name]
		for _, algo := range []string{"spider-merge", "brute-force", "single-pass"} {
			target := "/v1/verify?dep=" + url.QueryEscape(cand.Dep.Ref.String()) +
				"&ref=" + url.QueryEscape(cand.Ref.Ref.String()) + "&algo=" + algo
			code, body := doJSON(t, h, "GET", target, "")
			if code != 200 {
				t.Fatalf("verify %s [%s] = %d %v", name, algo, code, body)
			}
			if body["satisfied"] != want {
				t.Errorf("verify %s [%s] = %v, batch said %v", name, algo, body["satisfied"], want)
			}
			if body["discovered"] != want || body["matches_discovery"] != true {
				t.Errorf("verify %s [%s]: discovered=%v matches=%v want discovered=%v",
					name, algo, body["discovered"], body["matches_discovery"], want)
			}
			if body["batch_candidate"] != true {
				t.Errorf("verify %s: batch_candidate=false for a generated candidate", name)
			}
		}
	}
}

func TestVerifyPost(t *testing.T) {
	s := newTestServer(t, buildFixture(t))
	h := s.Handler()
	code, body := doJSON(t, h, "POST", "/v1/verify",
		`{"dep": "child.parent_id", "ref": "parent.id", "algorithm": "brute-force"}`)
	if code != 200 || body["satisfied"] != true || body["algorithm"] != "brute-force" {
		t.Fatalf("verify POST = %d %v", code, body)
	}
	if code, _ := doJSON(t, h, "POST", "/v1/verify", `{"dep": "a.b"`); code != http.StatusBadRequest {
		t.Fatalf("truncated JSON body = %d", code)
	}
	if code, _ := doJSON(t, h, "POST", "/v1/verify",
		`{"dep": "child.parent_id", "ref": "parent.id", "algorithm": "quantum"}`); code != http.StatusBadRequest {
		t.Fatalf("unknown algorithm = %d", code)
	}
}

func TestResponseCache(t *testing.T) {
	s := newTestServer(t, buildFixture(t))
	h := s.Handler()
	const target = "/v1/member?attr=parent.id&value=3"
	doJSON(t, h, "GET", target, "")
	doJSON(t, h, "GET", target, "")
	cm := s.State().cache.metrics()
	if cm.Hits < 1 {
		t.Fatalf("cache metrics after identical queries: %+v", cm)
	}
	// Error responses must not be cached.
	doJSON(t, h, "GET", "/v1/member?attr=parent.nope&value=3", "")
	before := s.State().cache.metrics().Len
	doJSON(t, h, "GET", "/v1/member?attr=parent.nope&value=3", "")
	if after := s.State().cache.metrics().Len; after != before {
		t.Fatalf("error response was cached: len %d -> %d", before, after)
	}
}

func TestReloadSwapsGeneration(t *testing.T) {
	s := newTestServer(t, buildFixture(t))
	h := s.Handler()
	old := s.State()
	code, body := doJSON(t, h, "POST", "/v1/reload", "")
	if code != 200 || body["generation"] != float64(2) {
		t.Fatalf("reload = %d %v", code, body)
	}
	if s.State() == old || s.State().Generation != 2 {
		t.Fatalf("state not swapped: gen %d", s.State().Generation)
	}
	// The old generation still answers for anyone who resolved it.
	if _, ok := old.Dataset("unit"); !ok {
		t.Fatal("old state unusable after swap")
	}
	code, body = doJSON(t, h, "GET", "/v1/member?attr=parent.id&value=3", "")
	if code != 200 || body["member"] != true || body["generation"] != float64(2) {
		t.Fatalf("member after reload = %d %v", code, body)
	}
}

// TestSnapshotSwapRace hammers /v1/member from many goroutines while
// reloads cycle the state underneath them. Run under -race this is the
// half-swapped-dataset detector: every response must be a complete,
// correct answer from some single generation.
func TestSnapshotSwapRace(t *testing.T) {
	s := newTestServer(t, buildFixture(t))
	h := s.Handler()

	const workers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var queries atomic.Int64
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			targets := []string{
				"/v1/member?attr=parent.id&value=3",
				"/v1/member?attr=child.code&value=C01",
				"/v1/inds?ref=parent.id",
				"/v1/containment?dep=child.parent_id&ref=parent.id",
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				target := targets[(w+i)%len(targets)]
				req := httptest.NewRequest("GET", target, nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != 200 {
					errCh <- fmt.Errorf("%s = %d %s", target, rec.Code, rec.Body.String())
					return
				}
				var body map[string]interface{}
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					errCh <- fmt.Errorf("%s: %v", target, err)
					return
				}
				if m, ok := body["member"]; ok && m != true {
					errCh <- fmt.Errorf("%s: member=false during swap", target)
					return
				}
				if g := body["generation"].(float64); g < 1 {
					errCh <- fmt.Errorf("%s: generation %v", target, g)
					return
				}
				queries.Add(1)
			}
		}(w)
	}
	for i := 0; i < 5; i++ {
		// Let traffic accumulate on the current generation before
		// swapping it out, so every reload races live requests.
		floor := queries.Load() + 20
		deadline := time.Now().Add(5 * time.Second)
		for queries.Load() < floor && time.Now().Before(deadline) && len(errCh) == 0 {
			time.Sleep(time.Millisecond)
		}
		if _, err := s.Reload(); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if queries.Load() == 0 {
		t.Fatal("no queries completed during the reload storm")
	}
	if gen := s.State().Generation; gen != 6 {
		t.Fatalf("generation = %d, want 6", gen)
	}
}

// TestHTTPServerTimeouts pins the connection bounds of the daemon's
// HTTP server: a client that never finishes its headers, or a
// keep-alive connection that never sends another request, is dropped.
func TestHTTPServerTimeouts(t *testing.T) {
	s := newTestServer(t, buildFixture(t))
	if ReadHeaderTimeout <= 0 || IdleTimeout <= 0 {
		t.Fatalf("timeouts must be positive: read header %v, idle %v", ReadHeaderTimeout, IdleTimeout)
	}
	if got := s.httpSrv.ReadHeaderTimeout; got != ReadHeaderTimeout {
		t.Errorf("ReadHeaderTimeout = %v, want %v", got, ReadHeaderTimeout)
	}
	if got := s.httpSrv.IdleTimeout; got != IdleTimeout {
		t.Errorf("IdleTimeout = %v, want %v", got, IdleTimeout)
	}
}

// TestGracefulShutdown parks an in-flight request on the delay hook,
// starts Shutdown, and requires the parked request to complete with a
// full correct response before Shutdown returns.
func TestGracefulShutdown(t *testing.T) {
	s := newTestServer(t, buildFixture(t))
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.delay = func(string) {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()

	type result struct {
		code int
		body []byte
		err  error
	}
	reqDone := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/v1/member?attr=parent.id&value=3")
		if err != nil {
			reqDone <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		reqDone <- result{code: resp.StatusCode, body: body, err: err}
	}()
	<-entered

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- s.Shutdown(ctx)
	}()

	// Shutdown must wait for the parked request.
	select {
	case err := <-shutDone:
		t.Fatalf("Shutdown returned (%v) with a request in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	res := <-reqDone
	if res.err != nil || res.code != 200 {
		t.Fatalf("in-flight request: %+v", res)
	}
	var body map[string]interface{}
	if err := json.Unmarshal(res.body, &body); err != nil || body["member"] != true {
		t.Fatalf("in-flight response corrupt: %s (%v)", res.body, err)
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("Serve: %v", err)
	}
}

// diskDataset exports the fixture to a directory of block value files
// with embedded sketches and persists the result set next to it — the exact layout
// indfind -out leaves behind.
func diskDataset(t testing.TB) string {
	t.Helper()
	dir := t.TempDir()
	ds := store.NewFS(dir)
	attrs, err := ind.Prepare(buildDB(t), ind.ExportConfig{Dataset: ds, Sketches: true})
	if err != nil {
		t.Fatal(err)
	}
	cands, _ := ind.GenerateCandidates(attrs, ind.GenOptions{})
	res, err := ind.SpiderMerge(cands, ind.SpiderMergeOptions{Store: ds})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ind.NewResultSet("disk", "spider-merge", attrs, res.Satisfied)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.WriteFile(dir + "/" + DefaultResultsName); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestLoadFromDisk drives the Specs path: serve from the files a batch
// run exported.
func TestLoadFromDisk(t *testing.T) {
	s, err := New(Config{Specs: []DatasetSpec{{Name: "disk", Dir: diskDataset(t)}}})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	code, body := doJSON(t, h, "GET", "/v1/member?dataset=disk&attr=parent.id&value=3", "")
	if code != 200 || body["member"] != true {
		t.Fatalf("member from disk = %d %v", code, body)
	}
	code, body = doJSON(t, h, "GET", "/v1/containment?dataset=disk&dep=child.parent_id&ref=parent.id", "")
	if code != 200 || body["refutes_exact"] != false {
		t.Fatalf("containment from disk = %d %v", code, body)
	}
	// Staging holds every value set in memory.
	code, body = doJSON(t, h, "GET", "/v1/attrs?dataset=disk", "")
	if code != 200 {
		t.Fatalf("attrs = %d %v", code, body)
	}
	for _, raw := range body["attributes"].([]interface{}) {
		a := raw.(map[string]interface{})
		if a["cached"] != true {
			t.Errorf("%v not cached after staging", a["attr"])
		}
	}
	// Reload re-resolves the same specs from disk.
	code, body = doJSON(t, h, "POST", "/v1/reload", "")
	if code != 200 || body["generation"] != float64(2) {
		t.Fatalf("reload from disk = %d %v", code, body)
	}
}

// TestLoadStatePreloadIsNoOp pins that staging copies each value set
// once: the deprecated DatasetSpec.Preload changes nothing, so loading
// a disk dataset allocates the same with it as without it.
func TestLoadStatePreloadIsNoOp(t *testing.T) {
	dir := diskDataset(t)
	// A collection empties sync.Pools, and refilling them allocates;
	// with no collection during the runs the count is exact.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(preload bool) float64 {
		specs := []DatasetSpec{{Name: "disk", Dir: dir, Preload: preload}}
		return testing.AllocsPerRun(5, func() {
			if _, err := LoadState(specs, 1, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	if without, with := allocs(false), allocs(true); with != without {
		t.Errorf("LoadState allocs: %v with Preload, %v without", with, without)
	}
}

// TestLoadStateRejectsEscapingKeys: a result set whose keys point
// outside the dataset directory — an absolute path to a real value file,
// or a parent-relative one — fails to load instead of staging that file.
func TestLoadStateRejectsEscapingKeys(t *testing.T) {
	dir, outside := t.TempDir(), t.TempDir()
	attrs, err := ind.Prepare(buildDB(t), ind.ExportConfig{Dataset: store.NewFS(dir)})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ind.NewResultSet("disk", "spider-merge", attrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A byte-identical copy outside the directory: only the key's shape
	// can tell it apart from the value set the spec names.
	stray := filepath.Join(outside, rs.Attrs[0].Key)
	data, err := os.ReadFile(filepath.Join(dir, rs.Attrs[0].Key))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stray, data, 0o666); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{stray, filepath.Join("..", filepath.Base(outside), rs.Attrs[0].Key)} {
		bad := *rs
		bad.Attrs = append([]ind.ResultSetAttr(nil), rs.Attrs...)
		bad.Attrs[0].Key = key
		if err := bad.WriteFile(filepath.Join(dir, DefaultResultsName)); err != nil {
			t.Fatal(err)
		}
		_, err := LoadState([]DatasetSpec{{Name: "disk", Dir: dir}}, 1, 0)
		if err == nil || !strings.Contains(err.Error(), "not a plain file name") {
			t.Errorf("key %q: LoadState = %v, want a rejected key", key, err)
		}
	}
}

// TestLoadStateRejectsTextExport: a dataset directory holding a value
// file in the text encoding fails to load with an error that names the
// file and valconvert. The file's first value is empty, so it starts
// with '\n' like the block magic does.
func TestLoadStateRejectsTextExport(t *testing.T) {
	dir := diskDataset(t)
	rs, err := ind.ReadResultSetFile(filepath.Join(dir, DefaultResultsName))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, rs.Attrs[0].Key)
	if err := os.WriteFile(path, []byte("\nalpha\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	_, err = LoadState([]DatasetSpec{{Name: "disk", Dir: dir}}, 1, 0)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "valconvert -format block") {
		t.Fatalf("LoadState on a text value file = %v, want an error naming %s and valconvert", err, path)
	}
}

// TestStaleResultSet ensures staging refuses a result set whose
// catalog disagrees with the value files.
func TestStaleResultSet(t *testing.T) {
	fx := buildFixture(t)
	rs := *fx.rs
	rs.Attrs = append([]ind.ResultSetAttr(nil), fx.rs.Attrs...)
	rs.Attrs[0].Distinct++
	_, err := New(Config{Sources: []Source{{Name: "unit", Base: fx.mem, Results: &rs}}})
	if err == nil || !strings.Contains(err.Error(), "stale result set") {
		t.Fatalf("stale catalog accepted: %v", err)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, buildFixture(t))
	h := s.Handler()
	doJSON(t, h, "GET", "/v1/member?attr=parent.id&value=3", "")
	doJSON(t, h, "GET", "/v1/member?attr=parent.nope&value=3", "")
	code, body := doJSON(t, h, "GET", "/metrics", "")
	if code != 200 {
		t.Fatalf("metrics = %d %v", code, body)
	}
	eps := body["endpoints"].(map[string]interface{})
	mem := eps["member"].(map[string]interface{})
	if mem["requests"] != float64(2) || mem["errors"] != float64(1) {
		t.Fatalf("member metrics = %v", mem)
	}
	dsets := body["datasets"].(map[string]interface{})
	unit, ok := dsets["unit"].(map[string]interface{})
	if !ok {
		t.Fatalf("dataset cache stats missing: %v", dsets)
	}
	// Every staged attribute's set is resident from load on.
	if unit["cached_keys"] != unit["attributes"] || unit["cached_keys"] == float64(0) {
		t.Errorf("dataset cache stats = %v", unit)
	}
}
