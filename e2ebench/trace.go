package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the span that caused this one (0: a root).
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Req    uint64        `json:"req,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span id.
func (t *tracer) id() uint64 { return t.next.Add(1) }

// add records a finished span started at t0 and ending now.
func (t *tracer) add(id, parent, req uint64, name string, t0 time.Time) {
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: t0.Sub(t.epoch), End: time.Since(t.epoch)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// call runs fn inside a root span named name and returns its duration.
func (t *tracer) call(name string, fn func() error) (time.Duration, error) {
	id, t0 := t.id(), time.Now()
	err := fn()
	t.add(id, 0, 0, name, t0)
	return time.Since(t0), err
}

// named returns the spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations of the spans called name, in unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, float64(s.dur())/float64(unit))
	}
	return out
}

// selfTimes is, for each span of a traced request whose name has
// prefix, its duration minus what its children cover, in unit.
func (t *tracer) selfTimes(prefix string, unit time.Duration) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][]interval)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Req != 0 && strings.HasPrefix(s.Name, prefix) {
			out = append(out, float64(selfTime(interval{s.Start, s.End}, children[s.ID]))/float64(unit))
		}
	}
	return out
}

// write stores every span, one JSON object a line, ordered by start.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanHeader carries "req/parent" across an HTTP hop.
const spanHeader = "X-Bench-Span"

type spanCtxKey struct{}

// spanRef is the request id and the span a callee should parent to.
type spanRef struct{ req, parent uint64 }

func parseSpanHeader(h string) spanRef {
	req, parent, _ := strings.Cut(h, "/")
	r, _ := strconv.ParseUint(req, 10, 64) // absent or malformed: a root span
	p, _ := strconv.ParseUint(parent, 10, 64)
	return spanRef{r, p}
}

// traceHandler wraps h in a span named prefix+endpoint (the first path
// element), parented to the caller's span header, and puts the span in
// the request context for outgoing calls.
func (t *tracer) traceHandler(prefix string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref := parseSpanHeader(r.Header.Get(spanHeader))
		id, t0 := t.id(), time.Now()
		ctx := context.WithValue(r.Context(), spanCtxKey{}, spanRef{ref.req, id})
		h.ServeHTTP(w, r.WithContext(ctx))
		t.add(id, ref.parent, ref.req, prefix+strings.Trim(r.URL.Path, "/"), t0)
	})
}

// traceTransport is a RoundTripper recording a span named name around
// each request made under a traced context, and forwarding the span to
// the callee in spanHeader. Untraced requests (probes) pass through.
type traceTransport struct {
	t    *tracer
	name string
	base http.RoundTripper
}

func (tt *traceTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ref, ok := r.Context().Value(spanCtxKey{}).(spanRef)
	if !ok {
		return tt.base.RoundTrip(r)
	}
	id, t0 := tt.t.id(), time.Now()
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, fmt.Sprintf("%d/%d", ref.req, id))
	resp, err := tt.base.RoundTrip(r)
	if err != nil {
		tt.t.add(id, ref.parent, ref.req, tt.name, t0)
		return nil, err
	}
	// The round trip ends when the body has been read.
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { tt.t.add(id, ref.parent, ref.req, tt.name, t0) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.end)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}
