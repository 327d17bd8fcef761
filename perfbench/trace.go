package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hyperpraw/internal/telemetry"
)

// span is one timed call into a layer. Spans of one request share Trace;
// Parent is the ID of the span that caused it (0 for a root).
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent"`
	Name   string             `json:"name"`
	Trace  string             `json:"trace"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s *span) dur() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps the spans of a traced run in memory until the run ends. A
// nil *tracer is the untraced run: every method is a no-op, and wrap
// returns the transport unchanged.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	active sync.Map // trace ID -> struct{}: requests whose spans are kept

	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

type parentKey struct{}

// activate makes the spans of requests carrying trace ID id recorded,
// including the gateway's proxied calls made on their behalf.
func (t *tracer) activate(id string) {
	if t != nil {
		t.active.Store(id, struct{}{})
	}
}

func (t *tracer) isActive(id string) bool {
	if t == nil || id == "" {
		return false
	}
	_, ok := t.active.Load(id)
	return ok
}

// start opens a span named name under ctx's current span. It returns nil
// (and ctx unchanged) when the request's trace is not being recorded.
func (t *tracer) start(ctx context.Context, name string) (context.Context, *span) {
	trace := telemetry.TraceFrom(ctx)
	if !t.isActive(trace) {
		return ctx, nil
	}
	parent, _ := ctx.Value(parentKey{}).(int64)
	s := &span{ID: t.nextID.Add(1), Parent: parent, Name: name, Trace: trace, Start: int64(time.Since(t.epoch))}
	return context.WithValue(ctx, parentKey{}, s.ID), s
}

// end closes s (nil-safe) and keeps it.
func (t *tracer) end(s *span) { t.endAt(s, time.Now()) }

func (t *tracer) endAt(s *span, end time.Time) {
	if s == nil {
		return
	}
	s.End = int64(end.Sub(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record keeps a span whose interval was measured elsewhere (a hook or a
// progress callback).
func (t *tracer) record(ctx context.Context, name string, start, end time.Time, attrs map[string]float64) {
	_, s := t.start(ctx, name)
	if s == nil {
		return
	}
	s.Start = int64(start.Sub(t.epoch))
	s.Attrs = attrs
	t.endAt(s, end)
}

// layerContext is the context of spans that belong to no client request:
// store hooks, replays and verification.
func (t *tracer) layerContext(trace string) context.Context {
	t.activate(trace)
	return telemetry.WithTrace(context.Background(), trace)
}

// timed runs fn inside a span named name; fn may record counts in attrs.
func (t *tracer) timed(ctx context.Context, name string, fn func(attrs map[string]float64)) {
	_, s := t.start(ctx, name)
	attrs := map[string]float64{}
	fn(attrs)
	if s != nil && len(attrs) > 0 {
		s.Attrs = attrs
	}
	t.end(s)
}

// wrap returns base wrapped so every request of a recorded trace gets a
// span, named "<tier> <METHOD> <route>", that lasts until its response
// body is closed.
func (t *tracer) wrap(base http.RoundTripper, tier string) http.RoundTripper {
	if t == nil {
		return base
	}
	return &tracingTransport{base: base, t: t, tier: tier}
}

type tracingTransport struct {
	base http.RoundTripper
	t    *tracer
	tier string
}

func (tt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx := req.Context()
	if telemetry.TraceFrom(ctx) == "" {
		// The gateway's proxied calls carry the trace as a header only.
		ctx = telemetry.WithTrace(ctx, req.Header.Get(telemetry.TraceHeader))
	}
	_, s := tt.t.start(ctx, tt.tier+" "+req.Method+" "+route(req.URL.Path))
	if s == nil {
		return tt.base.RoundTrip(req)
	}
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		s.Attrs = map[string]float64{"error": 1}
		tt.t.end(s)
		return resp, err
	}
	s.Attrs = map[string]float64{"status": float64(resp.StatusCode)}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tt.t, s: s}
	return resp, nil
}

// spanBody ends its span when the response body is closed, so a span
// covers reading the payload, not just the headers.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    *span
	n    int64
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.Attrs["bytes"] = float64(b.n)
		b.t.end(b.s)
	})
	return err
}

// route collapses resource IDs out of an API path so spans group by
// endpoint.
func route(path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	if len(parts) >= 3 && (parts[1] == "jobs" || parts[1] == "hypergraphs") {
		parts[2] = "{id}"
	}
	if len(parts) >= 5 && parts[3] == "parts" {
		parts[4] = "{n}"
	}
	return "/" + strings.Join(parts, "/")
}

// all returns the recorded spans, with every proxied (upstream) call
// parented to the client call of the same trace whose interval contains
// it — the gateway's outbound requests carry the trace ID but not the
// span that caused them.
func (t *tracer) all() []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	byTrace := map[string][]*span{}
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, "client ") {
			byTrace[s.Trace] = append(byTrace[s.Trace], s)
		}
	}
	for _, s := range t.spans {
		if s.Parent != 0 || !strings.HasPrefix(s.Name, "upstream ") {
			continue
		}
		for _, c := range byTrace[s.Trace] {
			if c.Start <= s.Start && s.End <= c.End {
				s.Parent = c.ID
				break
			}
		}
	}
	return t.spans
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
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
