package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hyperpraw"
	"hyperpraw/client"
	"hyperpraw/internal/telemetry"
)

// setups is how many times a run boots and prepares its stack; setup_s
// is the median, and the last stack serves the measured window.
const setups = 3

// clients is the number of closed-loop clients: one per core of the
// 2-core reference machine, so clients plus service workers never exceed
// twice the core count.
const clients = 2

type runOptions struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workDir  string
}

// opKind classifies a client operation.
type opKind string

const (
	opCompute opKind = "compute" // a job the backend computes
	opHit     opKind = "hit"     // a repeat the gateway result cache answers
	opUpload  opKind = "upload"  // a chunked hypergraph upload
)

// outcome is one client operation as the benchmark saw it.
type outcome struct {
	kind   opKind
	req    int // index into the workload's request list
	trace  string
	traced bool
	start  time.Time
	end    time.Time
	info   hyperpraw.JobInfo // submit response (jobs)
	res    *hyperpraw.JobResult
	graph  hyperpraw.HypergraphInfo // committed resource (uploads)
	err    error
}

func (o *outcome) latency() float64 { return o.end.Sub(o.start).Seconds() }

// runner drives one measured window: it hands out request indices in list
// order, times every operation, and keeps the outcomes for verification.
type runner struct {
	opts     runOptions
	tr       *tracer
	start    time.Time
	deadline time.Time
	minJobs  int64 // computed jobs the window must contain
	list     int   // length of the request list

	next     atomic.Int64
	computed atomic.Int64
	seq      atomic.Int64

	mu   sync.Mutex
	outs []*outcome
}

// claim returns the next request index, or false once the window is over
// (deadline passed and enough computed jobs seen) or the list is used up.
func (r *runner) claim() (int, bool) {
	if !time.Now().Before(r.deadline) && r.computed.Load() >= r.minJobs {
		return 0, false
	}
	i := int(r.next.Add(1) - 1)
	return i, i < r.list
}

func (r *runner) record(o *outcome) {
	if o.kind == opCompute && o.err == nil {
		r.computed.Add(1)
	}
	r.mu.Lock()
	r.outs = append(r.outs, o)
	r.mu.Unlock()
}

// begin starts an operation under a fresh trace ID. A traced run traces
// half the operations, picked by a hash of the sequence number so the
// choice does not follow the request list's structure; the untraced half,
// interleaved with it over the same window, measures what tracing costs.
func (r *runner) begin(ctx context.Context, kind opKind, req int) (context.Context, *outcome, *span) {
	seq := r.seq.Add(1)
	o := &outcome{kind: kind, req: req, trace: fmt.Sprintf("pb-%s-%d-%d", kind, r.opts.seed, seq)}
	o.start = time.Now()
	if r.tr != nil && mix(uint64(seq))>>63 == 1 {
		o.traced = true
		r.tr.activate(o.trace)
	}
	ctx, root := r.tr.start(telemetry.WithTrace(ctx, o.trace), string(kind))
	return ctx, o, root
}

// mix is the splitmix64 finaliser.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// job submits wire and waits for its result, as client.Partition does, with
// the two halves in separate spans.
func (r *runner) job(ctx context.Context, c *client.Client, wire hyperpraw.PartitionRequest, kind opKind, req int) *outcome {
	ctx, o, root := r.begin(ctx, kind, req)
	sctx, s := r.tr.start(ctx, "client.submit")
	o.info, o.err = c.Submit(sctx, wire)
	r.tr.end(s)
	if o.err == nil {
		wctx, w := r.tr.start(ctx, "client.wait")
		o.res, o.err = c.Wait(wctx, o.info.ID)
		r.tr.end(w)
	}
	o.end = time.Now()
	r.tr.end(root)
	r.record(o)
	return o
}

// upload streams src to the front tier as a chunked upload.
func (r *runner) upload(ctx context.Context, c *client.Client, src io.Reader, name string, partSize int64, req int) *outcome {
	ctx, o, root := r.begin(ctx, opUpload, req)
	o.graph, o.err = c.UploadHypergraph(ctx, src, name, partSize)
	o.end = time.Now()
	r.tr.end(root)
	r.record(o)
	return o
}

// window runs the closed loop: clients goroutines each calling step until
// it reports the list exhausted or the window over.
func (r *runner) window(ctx context.Context, step func(ctx context.Context, client int) bool) time.Duration {
	var wg sync.WaitGroup
	r.start = time.Now()
	r.deadline = r.start.Add(time.Duration(r.opts.seconds) * time.Second)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for step(ctx, c) {
			}
		}(c)
	}
	wg.Wait()
	return time.Since(r.start)
}

// execute generates the workload's inputs, sets its stack up setups
// times, runs the measured window on the last one, verifies every result
// and reports.
func execute(w workload, opts runOptions, h host) (*result, error) {
	work, err := filepath.Abs(opts.workDir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	if err := w.generate(opts.seed); err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	ctx := context.Background()
	var setupTimes []float64
	var st *stack
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		s, err := boot(w.spec(), filepath.Join(dir, fmt.Sprintf("setup%d", i)), tr)
		if err != nil {
			return nil, fmt.Errorf("booting stack: %w", err)
		}
		if err := w.setup(ctx, s); err != nil {
			s.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if i < setups-1 {
			s.close()
			continue
		}
		st = s
	}
	defer st.close()

	r := &runner{opts: opts, tr: tr, minJobs: int64(w.minJobs()), list: w.listLen()}
	if opts.trace {
		r.minJobs = 0 // per-layer numbers need no p90 tail
		hookStores(st, tr)
	}
	before := snapshotCaches(st)
	wall := r.window(ctx, func(ctx context.Context, c int) bool { return w.step(ctx, r, st, c) })
	after := snapshotCaches(st)
	rss := peakRSSMB() // before verification, which holds the benchmark's own copies

	rep := verifyAll(w, r, tr)
	if err := checkCacheDesign(w, r, st, before, after); err != nil {
		rep.fail("cache design: %v", err)
	}
	if rep.verifiedJobs == 0 {
		rep.fail("no job returned a verified result")
	}
	res := &result{Correct: rep.ok(), Attempted: int64(len(r.outs)), Failed: rep.failed}
	for _, msg := range rep.msgs {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s\n", msg)
	}
	if opts.trace {
		res.Metrics, err = layerMetrics(w, r, st, tr, before, after)
		if err != nil {
			return nil, fmt.Errorf("per-layer metrics: %w", err)
		}
		path := filepath.Join(work, fmt.Sprintf("spans-%s-seed%d.jsonl", opts.workload, opts.seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s (%s)\n", len(tr.all()), path, h)
	} else {
		res.Metrics = endToEnd(w, r, wall, setupTimes, rss, rep)
	}
	summarize(res, wall, r)
	return res, nil
}

// endToEnd computes the user-visible metrics of an untraced run.
func endToEnd(w workload, r *runner, wall time.Duration, setupTimes []float64, rss float64, rep *report) map[string]metric {
	var lat []float64
	for _, o := range r.outs {
		if o.kind == opCompute && o.err == nil {
			lat = append(lat, o.latency())
		}
	}
	costs, spans := referenceQuality(w, r)
	attempted := float64(len(r.outs))
	return map[string]metric{
		"setup_s":           {median(setupTimes), "s"},
		"jobs_per_s":        {float64(rep.verifiedJobs) / wall.Seconds(), "1/s"},
		"job_latency_p50_s": {quantile(lat, 0.5), "s"},
		"job_latency_p90_s": {quantile(lat, 0.9), "s"},
		"comm_cost":         {geomean(costs), "PC"},
		"sim_makespan_s":    {geomean(spans), "s"},
		"success_ratio":     {(attempted - float64(rep.failed)) / attempted, "ratio"},
		"peak_rss_mb":       {rss, "MB"},
	}
}

// referenceQuality returns the comm cost and simulated makespan of the
// first refPrefix requests of the list, which every run completes, so
// the geometric means cover the same request set on every run of a seed.
func referenceQuality(w workload, r *runner) (costs, spans []float64) {
	byReq := map[int]*outcome{}
	for _, o := range r.outs {
		if o.kind == opCompute && o.err == nil && o.req < w.refPrefix() {
			byReq[o.req] = o
		}
	}
	for i := 0; i < w.refPrefix(); i++ {
		if o, ok := byReq[i]; ok {
			costs = append(costs, o.res.Report.CommCost)
			if o.res.Bench != nil {
				spans = append(spans, o.res.Bench.MakespanSec)
			}
		}
	}
	return costs, spans
}

func summarize(res *result, wall time.Duration, r *runner) {
	counts := map[opKind]int{}
	for _, o := range r.outs {
		counts[o.kind]++
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench: window %.2fs, ops %v, failed %d, correct %t\n", wall.Seconds(), counts, res.Failed, res.Correct)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}
