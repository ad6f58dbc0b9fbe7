package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// benchServe drives one request target through the router per iteration,
// measuring the full handler path: routing, state resolution, the
// response cache, and JSON encoding.
func benchServe(b *testing.B, target string, cacheSize int) {
	fx := buildFixture(b)
	s, err := New(Config{
		Sources:   []Source{{Name: "unit", Base: fx.mem, Results: fx.rs}},
		CacheSize: cacheSize,
	})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("GET", target, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkServeMember measures the value-membership probe with the
// response cache disabled — every iteration pays the bloom probe and
// the binary search over the value set.
func BenchmarkServeMember(b *testing.B) {
	benchServe(b, "/v1/member?attr=parent.id&value=3", -1)
}

// BenchmarkServeMemberCached measures the same probe answered from the
// response cache.
func BenchmarkServeMemberCached(b *testing.B) {
	benchServe(b, "/v1/member?attr=parent.id&value=3", DefaultCacheSize)
}

// BenchmarkServeContainment measures the sketch-only containment
// estimate with the response cache disabled.
func BenchmarkServeContainment(b *testing.B) {
	benchServe(b, "/v1/containment?dep=child.parent_id&ref=parent.id", -1)
}
