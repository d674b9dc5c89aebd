package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/api"
)

// span is one timed call into a layer. Calls > 1 marks a span that
// covers a batch of identical sub-microsecond calls (kernel or gang
// round trips), where a span per call would cost as much as the call.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Job    string `json:"job,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0   time.Time
	next atomic.Int64

	mu     sync.Mutex
	spans  []span
	leases map[string]string // lease ID -> job ID, learned from lease grants
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), leases: map[string]string{}}
}

// begin opens a span and returns its ID and start offset.
func (t *tracer) begin() (id, start int64) {
	if t == nil {
		return 0, 0
	}
	return t.next.Add(1), int64(time.Since(t.t0))
}

// end closes a span opened by begin.
func (t *tracer) end(id, start, parent int64, name, job string, calls int) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Job: job, Name: name, Start: start, End: int64(time.Since(t.t0)), Calls: calls}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name, job string, parent int64, calls int, fn func()) time.Duration {
	id, start := t.begin()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(id, start, parent, name, job, calls)
	return d
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as JSON next to the run's environment.
func (t *tracer) write(path string, env map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Env   map[string]any `json:"env"`
		Spans []span         `json:"spans"`
	}{env, t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

type spanKey struct{}

// withParent tags ctx with the span that outgoing client requests belong
// to; spanTransport forwards it as a header so the server-side middleware
// can link its span to the client's.
func withParent(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

const parentHeader = "X-Bench-Parent-Span"

type spanTransport struct{ base http.RoundTripper }

func (st spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(spanKey{}).(int64); ok && id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(parentHeader, strconv.FormatInt(id, 10))
	}
	return st.base.RoundTrip(r)
}

// route names a request by method and path with IDs replaced by {id},
// and returns the job or lease the path names, if any.
func route(r *http.Request) (name, job, lease string) {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	for i := 1; i < len(parts); i++ {
		switch parts[i-1] {
		case "jobs":
			job = parts[i]
		case "leases":
			lease = parts[i]
		case "workers":
		default:
			continue
		}
		parts[i] = "{id}"
	}
	return "http " + r.Method + " /" + strings.Join(parts, "/"), job, lease
}

// captureWriter keeps the body of small JSON replies (submit, lease) so
// the middleware can learn the job a request created or leased.
type captureWriter struct {
	http.ResponseWriter
	keep bool
	buf  bytes.Buffer
}

func (c *captureWriter) Write(b []byte) (int, error) {
	if c.keep {
		c.buf.Write(b)
	}
	return c.ResponseWriter.Write(b)
}

// Flush passes SSE flushes through to the real writer.
func (c *captureWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// middleware records one span per HTTP request, named by route and
// tagged with the job it serves. Job IDs restart in every daemon, so
// they are prefixed with the daemon's tag.
func (t *tracer) middleware(next http.Handler, tag string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name, job, lease := route(r)
		parent, _ := strconv.ParseInt(r.Header.Get(parentHeader), 10, 64)
		cw := &captureWriter{ResponseWriter: w,
			keep: name == "http POST "+api.Prefix+"/jobs" || name == "http POST "+api.InternalPrefix+"/leases"}
		id, start := t.begin()
		next.ServeHTTP(cw, r)
		if cw.keep && cw.buf.Len() > 0 {
			var reply struct {
				ID    string    `json:"id"`
				Lease api.Lease `json:"lease"`
			}
			if json.Unmarshal(cw.buf.Bytes(), &reply) == nil {
				job = reply.ID
				if reply.Lease.ID != "" {
					job = reply.Lease.JobID
					t.mu.Lock()
					t.leases[reply.Lease.ID] = job
					t.mu.Unlock()
				}
			}
		}
		if lease != "" {
			t.mu.Lock()
			job = t.leases[lease]
			t.mu.Unlock()
		}
		if job != "" {
			job = tag + job
		}
		t.end(id, start, parent, name, job, 0)
	})
}
