package serve

import (
	"encoding/json"
	"net/http"
	"time"

	"spider/internal/ind"
	"spider/internal/sketch"
	"spider/internal/valfile"
	"spider/internal/value"
)

// routes wires every endpoint through the instrumentation wrapper.
// Read-only probe endpoints are cacheable; everything else is not.
func (s *Server) routes() {
	s.mux.Handle("GET /healthz", s.instrument("healthz", false, s.handleHealthz))
	s.mux.Handle("GET /metrics", s.instrument("metrics", false, s.handleMetrics))
	s.mux.Handle("GET /v1/datasets", s.instrument("datasets", false, s.handleDatasets))
	s.mux.Handle("GET /v1/attrs", s.instrument("attrs", false, s.handleAttrs))
	s.mux.Handle("GET /v1/member", s.instrument("member", true, s.handleMember))
	s.mux.Handle("GET /v1/containment", s.instrument("containment", true, s.handleContainment))
	s.mux.Handle("GET /v1/inds", s.instrument("inds", true, s.handleINDs))
	s.mux.Handle("GET /v1/verify", s.instrument("verify", false, s.handleVerify))
	s.mux.Handle("POST /v1/verify", s.instrument("verify", false, s.handleVerify))
	s.mux.Handle("POST /v1/reload", s.instrument("reload", false, s.handleReload))
}

// handlerFunc computes one endpoint's response against a single State
// resolved at request entry — the swap-consistency contract: a handler
// never touches s.state again, so a concurrent reload cannot show it
// two generations.
type handlerFunc func(st *State, r *http.Request) (interface{}, *apiError)

// errorEnvelope is the JSON error shape.
type errorEnvelope struct {
	Error string `json:"error"`
}

// instrument wraps h with state resolution, the per-generation response
// cache, JSON encoding, and metrics.
func (s *Server) instrument(endpoint string, cacheable bool, h handlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if s.delay != nil {
			s.delay(endpoint)
		}
		st := s.state.Load()
		status, body := 0, []byte(nil)
		key := ""
		if cacheable {
			key = r.URL.Path + "?" + r.URL.RawQuery
			if resp, ok := st.cache.get(key); ok {
				status, body = resp.status, resp.body
			}
		}
		if body == nil {
			payload, aerr := h(st, r)
			if aerr != nil {
				status, body = aerr.status, encodeJSON(errorEnvelope{Error: aerr.msg})
			} else {
				status, body = http.StatusOK, encodeJSON(payload)
			}
			if cacheable && status == http.StatusOK {
				st.cache.put(key, status, body)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write(body)
		s.metrics.observe(endpoint, status, time.Since(start))
	})
}

// encodeJSON marshals payload, degrading to an error envelope rather
// than panicking (nothing the handlers build should be unmarshalable,
// but a serving process does not get to crash on a marshal bug).
func encodeJSON(payload interface{}) []byte {
	b, err := json.Marshal(payload)
	if err != nil {
		return []byte(`{"error":"response encoding failed"}` + "\n")
	}
	return append(b, '\n')
}

// dataset resolves the named dataset of st.
func dataset(st *State, name string) (*Dataset, *apiError) {
	d, ok := st.Dataset(name)
	if !ok {
		if name == "" {
			return nil, errBadRequest("missing dataset parameter (%d datasets loaded)", len(st.names))
		}
		return nil, errNotFound("unknown dataset %q", name)
	}
	return d, nil
}

// attr resolves a table.column name inside d.
func attr(d *Dataset, name, role string) (*ind.Attribute, *apiError) {
	if name == "" {
		return nil, errBadRequest("missing %s parameter (want table.column)", role)
	}
	a, ok := d.Attr(name)
	if !ok {
		return nil, errNotFound("dataset %s has no attribute %q", d.Name, name)
	}
	return a, nil
}

// ---------------------------------------------------------------- health

// HealthResponse is the /healthz payload.
type HealthResponse struct {
	Status     string `json:"status"`
	Generation int    `json:"generation"`
	Datasets   int    `json:"datasets"`
}

func (s *Server) handleHealthz(st *State, _ *http.Request) (interface{}, *apiError) {
	return HealthResponse{Status: "ok", Generation: st.Generation, Datasets: len(st.names)}, nil
}

// --------------------------------------------------------------- metrics

// DatasetCacheMetrics reports what one dataset holds in memory.
type DatasetCacheMetrics struct {
	CachedKeys     int   `json:"cached_keys"`
	CachedValues   int64 `json:"cached_values"`
	CachedSections int   `json:"cached_sections"`
	Attributes     int   `json:"attributes"`
}

// MetricsResponse is the /metrics payload.
type MetricsResponse struct {
	UptimeNs   int64                          `json:"uptime_ns"`
	Generation int                            `json:"generation"`
	LoadedAt   time.Time                      `json:"loaded_at"`
	Endpoints  map[string]EndpointMetrics     `json:"endpoints"`
	Cache      CacheMetrics                   `json:"cache"`
	Datasets   map[string]DatasetCacheMetrics `json:"datasets"`
}

func (s *Server) handleMetrics(st *State, _ *http.Request) (interface{}, *apiError) {
	resp := MetricsResponse{
		UptimeNs:   s.metrics.uptime().Nanoseconds(),
		Generation: st.Generation,
		LoadedAt:   st.LoadedAt,
		Endpoints:  s.metrics.snapshot(),
		Cache:      st.cache.metrics(),
		Datasets:   make(map[string]DatasetCacheMetrics, len(st.names)),
	}
	for _, name := range st.names {
		d := st.datasets[name]
		cs := d.Snap.CacheStats()
		resp.Datasets[name] = DatasetCacheMetrics{
			CachedKeys:     cs.Keys,
			CachedValues:   cs.Values,
			CachedSections: cs.Sections,
			Attributes:     len(d.Attrs),
		}
	}
	return resp, nil
}

// -------------------------------------------------------------- datasets

// DatasetInfo describes one loaded dataset.
type DatasetInfo struct {
	Name       string `json:"name"`
	Algorithm  string `json:"algorithm,omitempty"`
	Attributes int    `json:"attributes"`
	INDs       int    `json:"inds"`
}

// DatasetsResponse is the /v1/datasets payload.
type DatasetsResponse struct {
	Generation int           `json:"generation"`
	LoadedAt   time.Time     `json:"loaded_at"`
	Datasets   []DatasetInfo `json:"datasets"`
}

func (s *Server) handleDatasets(st *State, _ *http.Request) (interface{}, *apiError) {
	resp := DatasetsResponse{Generation: st.Generation, LoadedAt: st.LoadedAt}
	for _, name := range st.names {
		d := st.datasets[name]
		resp.Datasets = append(resp.Datasets, DatasetInfo{
			Name:       d.Name,
			Algorithm:  d.Algorithm,
			Attributes: len(d.Attrs),
			INDs:       len(d.INDs),
		})
	}
	return resp, nil
}

// ----------------------------------------------------------------- attrs

// AttrInfo describes one attribute of a loaded dataset.
type AttrInfo struct {
	Attr     string `json:"attr"`
	Key      string `json:"key"`
	Kind     string `json:"kind"`
	Rows     int    `json:"rows"`
	NonNull  int    `json:"non_null"`
	Distinct int    `json:"distinct"`
	Unique   bool   `json:"unique"`
	Sketch   bool   `json:"sketch"`
	Cached   bool   `json:"cached"`
}

// AttrsResponse is the /v1/attrs payload.
type AttrsResponse struct {
	Dataset    string     `json:"dataset"`
	Generation int        `json:"generation"`
	Attributes []AttrInfo `json:"attributes"`
}

func (s *Server) handleAttrs(st *State, r *http.Request) (interface{}, *apiError) {
	d, aerr := dataset(st, r.URL.Query().Get("dataset"))
	if aerr != nil {
		return nil, aerr
	}
	resp := AttrsResponse{Dataset: d.Name, Generation: st.Generation}
	for _, a := range d.Attrs {
		resp.Attributes = append(resp.Attributes, AttrInfo{
			Attr:     a.Ref.String(),
			Key:      a.Key,
			Kind:     a.Kind.String(),
			Rows:     a.Rows,
			NonNull:  a.NonNull,
			Distinct: a.Distinct,
			Unique:   a.Unique,
			Sketch:   a.Sketch != nil,
			Cached:   true, // staging holds every attribute's set in memory
		})
	}
	return resp, nil
}

// ---------------------------------------------------------------- member

// MemberResponse is the /v1/member payload. Source names the evidence:
// "bloom" for a definite sketch refutation (the value set was not
// touched), "cursor" for a lookup in the value set, "null" for a probe
// value that canonicalises to NULL (never a member of any value set).
type MemberResponse struct {
	Dataset    string `json:"dataset"`
	Attr       string `json:"attr"`
	Value      string `json:"value"`
	Canonical  string `json:"canonical,omitempty"`
	Member     bool   `json:"member"`
	Source     string `json:"source"`
	Generation int    `json:"generation"`
}

func (s *Server) handleMember(st *State, r *http.Request) (interface{}, *apiError) {
	req, aerr := parseMemberRequest(r.URL.Query())
	if aerr != nil {
		return nil, aerr
	}
	d, aerr := dataset(st, req.Dataset)
	if aerr != nil {
		return nil, aerr
	}
	a, aerr := attr(d, req.Attr, "attr")
	if aerr != nil {
		return nil, aerr
	}
	resp := MemberResponse{Dataset: d.Name, Attr: req.Attr, Value: req.Value, Generation: st.Generation}
	v := value.Parse(req.Value, a.Kind)
	if v.IsNull() {
		resp.Source = "null"
		return resp, nil
	}
	c := v.Canonical()
	resp.Canonical = c
	// Bloom first: a miss is a definite refutation (no false
	// negatives), so the value set is never touched. Only a bloom hit
	// (or a sketchless attribute) pays for the lookup in the value set.
	if a.Sketch != nil && !a.Sketch.MayContainValue(c) {
		resp.Source = "bloom"
		return resp, nil
	}
	resp.Source = "cursor"
	member, err := d.Snap.Contains(a.Key, c)
	if err != nil {
		return nil, errUnprocessable("%s: %v", req.Attr, err)
	}
	resp.Member = member
	return resp, nil
}

// ----------------------------------------------------------- containment

// ContainmentResponse is the /v1/containment payload: the KMV-sample ×
// bloom probe of dep against ref, no merge, no cursor. DefiniteMisses
// sampled dependent values are proven absent from ref, so any positive
// count refutes the exact IND (RefutesExact).
type ContainmentResponse struct {
	Dataset        string  `json:"dataset"`
	Dep            string  `json:"dep"`
	Ref            string  `json:"ref"`
	Probed         int     `json:"probed"`
	Hits           int     `json:"hits"`
	DefiniteMisses int     `json:"definite_misses"`
	Estimate       float64 `json:"estimate"`
	RefutesExact   bool    `json:"refutes_exact"`
	DepDistinct    int     `json:"dep_distinct"`
	RefDistinct    int     `json:"ref_distinct"`
	Generation     int     `json:"generation"`
}

func (s *Server) handleContainment(st *State, r *http.Request) (interface{}, *apiError) {
	req, aerr := parseContainmentRequest(r.URL.Query())
	if aerr != nil {
		return nil, aerr
	}
	d, aerr := dataset(st, req.Dataset)
	if aerr != nil {
		return nil, aerr
	}
	dep, aerr := attr(d, req.Dep, "dep")
	if aerr != nil {
		return nil, aerr
	}
	ref, aerr := attr(d, req.Ref, "ref")
	if aerr != nil {
		return nil, aerr
	}
	if dep.Sketch == nil || ref.Sketch == nil {
		return nil, errUnprocessable("containment needs persisted sketches on both sides (dep: %v, ref: %v) — re-run discovery with the sketch pre-filter enabled",
			dep.Sketch != nil, ref.Sketch != nil)
	}
	probe := sketch.Probe(dep.Sketch, ref.Sketch)
	return ContainmentResponse{
		Dataset:        d.Name,
		Dep:            req.Dep,
		Ref:            req.Ref,
		Probed:         probe.Probed,
		Hits:           probe.Hits,
		DefiniteMisses: probe.DefiniteMisses(),
		Estimate:       probe.Containment(),
		RefutesExact:   probe.DefiniteMisses() > 0,
		DepDistinct:    dep.Distinct,
		RefDistinct:    ref.Distinct,
		Generation:     st.Generation,
	}, nil
}

// ------------------------------------------------------------------ inds

// INDRecord is one verified IND.
type INDRecord struct {
	Dep string `json:"dep"`
	Ref string `json:"ref"`
}

// INDsResponse is the /v1/inds payload; Total counts the matches before
// Limit truncation.
type INDsResponse struct {
	Dataset    string      `json:"dataset"`
	Algorithm  string      `json:"algorithm,omitempty"`
	Total      int         `json:"total"`
	INDs       []INDRecord `json:"inds"`
	Generation int         `json:"generation"`
}

func (s *Server) handleINDs(st *State, r *http.Request) (interface{}, *apiError) {
	req, aerr := parseINDsRequest(r.URL.Query())
	if aerr != nil {
		return nil, aerr
	}
	d, aerr := dataset(st, req.Dataset)
	if aerr != nil {
		return nil, aerr
	}
	resp := INDsResponse{Dataset: d.Name, Algorithm: d.Algorithm, Generation: st.Generation, INDs: []INDRecord{}}
	for _, x := range d.INDs {
		depName, refName := x.Dep.String(), x.Ref.String()
		if req.Dep != "" && depName != req.Dep {
			continue
		}
		if req.Ref != "" && refName != req.Ref {
			continue
		}
		if req.Attr != "" && depName != req.Attr && refName != req.Attr {
			continue
		}
		if req.Table != "" && x.Dep.Table != req.Table && x.Ref.Table != req.Table {
			continue
		}
		resp.Total++
		if len(resp.INDs) < req.Limit {
			resp.INDs = append(resp.INDs, INDRecord{Dep: depName, Ref: refName})
		}
	}
	return resp, nil
}

// ---------------------------------------------------------------- verify

// VerifyResponse is the /v1/verify payload: the engine's fresh verdict
// next to the batch run's. Discovered reports whether the pair is in
// the loaded result set; MatchesDiscovery compares the two — for any
// pair the batch run actually tested they must agree, while a pair the
// batch pretests excluded (BatchCandidate false) legitimately may not.
type VerifyResponse struct {
	Dataset          string `json:"dataset"`
	Dep              string `json:"dep"`
	Ref              string `json:"ref"`
	Algorithm        string `json:"algorithm"`
	Satisfied        bool   `json:"satisfied"`
	Discovered       bool   `json:"discovered"`
	MatchesDiscovery bool   `json:"matches_discovery"`
	BatchCandidate   bool   `json:"batch_candidate"`
	ItemsRead        int64  `json:"items_read"`
	DurationNs       int64  `json:"duration_ns"`
	Generation       int    `json:"generation"`
}

func (s *Server) handleVerify(st *State, r *http.Request) (interface{}, *apiError) {
	req, aerr := parseVerifyRequest(r)
	if aerr != nil {
		return nil, aerr
	}
	d, aerr := dataset(st, req.Dataset)
	if aerr != nil {
		return nil, aerr
	}
	dep, aerr := attr(d, req.Dep, "dep")
	if aerr != nil {
		return nil, aerr
	}
	ref, aerr := attr(d, req.Ref, "ref")
	if aerr != nil {
		return nil, aerr
	}
	cand := []ind.Candidate{{Dep: dep, Ref: ref}}
	var counter valfile.ReadCounter
	var res *ind.Result
	var err error
	switch req.Algorithm {
	case "brute-force":
		res, err = ind.BruteForce(cand, ind.BruteForceOptions{Counter: &counter, Store: d.Snap})
	case "single-pass":
		res, err = ind.SinglePass(cand, ind.SinglePassOptions{Counter: &counter, Store: d.Snap})
	default:
		res, err = ind.SpiderMerge(cand, ind.SpiderMergeOptions{Counter: &counter, Store: d.Snap})
	}
	if err != nil {
		return nil, errUnprocessable("verify %s ⊆ %s: %v", req.Dep, req.Ref, err)
	}
	satisfied := len(res.Satisfied) == 1
	discovered := d.Discovered(dep, ref)
	return VerifyResponse{
		Dataset:          d.Name,
		Dep:              req.Dep,
		Ref:              req.Ref,
		Algorithm:        req.Algorithm,
		Satisfied:        satisfied,
		Discovered:       discovered,
		MatchesDiscovery: satisfied == discovered,
		BatchCandidate:   batchCandidate(dep, ref),
		ItemsRead:        res.Stats.ItemsRead,
		DurationNs:       res.Stats.Duration.Nanoseconds(),
		Generation:       st.Generation,
	}, nil
}

// batchCandidate reports whether the batch pipeline would have tested
// the pair at all: the candidate-generation role and cardinality rules
// of Sec 2. A satisfied verify verdict on a non-candidate pair is not
// a discovery mismatch — the batch run never looked at it.
func batchCandidate(dep, ref *ind.Attribute) bool {
	return dep.DependentCandidate() && ref.ReferencedCandidate() && dep.Distinct <= ref.Distinct
}

// ---------------------------------------------------------------- reload

// ReloadResponse is the /v1/reload payload.
type ReloadResponse struct {
	Generation int      `json:"generation"`
	Datasets   []string `json:"datasets"`
	DurationNs int64    `json:"duration_ns"`
}

func (s *Server) handleReload(_ *State, _ *http.Request) (interface{}, *apiError) {
	start := time.Now()
	st, err := s.Reload()
	if err != nil {
		return nil, &apiError{status: http.StatusInternalServerError, msg: err.Error()}
	}
	return ReloadResponse{
		Generation: st.Generation,
		Datasets:   st.Names(),
		DurationNs: time.Since(start).Nanoseconds(),
	}, nil
}
