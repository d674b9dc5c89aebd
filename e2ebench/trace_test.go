package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestMiddlewareNamesRoutesAndJobs(t *testing.T) {
	tr := newTracer()
	h := tr.middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/internal/v1/leases" {
			w.Write([]byte(`{"lease":{"id":"l-7","job_id":"job-00000003","worker_id":"w-1"}}`))
		}
	}), "d/")
	for _, path := range []string{"/v1/jobs/job-00000002/events", "/internal/v1/leases", "/internal/v1/leases/l-7/progress"} {
		r := httptest.NewRequest(http.MethodPost, path, strings.NewReader("{}"))
		r.Header.Set(parentHeader, "41")
		h.ServeHTTP(httptest.NewRecorder(), r)
	}
	want := []span{
		{Name: "http POST /v1/jobs/{id}/events", Job: "d/job-00000002", Parent: 41},
		{Name: "http POST /internal/v1/leases", Job: "d/job-00000003", Parent: 41},
		{Name: "http POST /internal/v1/leases/{id}/progress", Job: "d/job-00000003", Parent: 41},
	}
	got := tr.snapshot()
	if len(got) != len(want) {
		t.Fatalf("%d spans, want %d", len(got), len(want))
	}
	for i, w := range want {
		if g := got[i]; g.Name != w.Name || g.Job != w.Job || g.Parent != w.Parent || g.End < g.Start {
			t.Errorf("span %d = %+v, want name %q job %q parent %d", i, g, w.Name, w.Job, w.Parent)
		}
	}
}

// BenchmarkSpan prices one recorded span, the tracing cost per call.
func BenchmarkSpan(b *testing.B) {
	tr := newTracer()
	for i := 0; i < b.N; i++ {
		tr.do("x", "job", 1, 0, func() {})
	}
}

// BenchmarkMiddleware prices the span middleware around an empty handler.
func BenchmarkMiddleware(b *testing.B) {
	tr := newTracer()
	h := tr.middleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}), "d/")
	r := httptest.NewRequest(http.MethodGet, "/v1/jobs/job-00000001/events", nil)
	w := httptest.NewRecorder()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, r)
	}
}
