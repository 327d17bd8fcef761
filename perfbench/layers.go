package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"hyperpraw"
	"hyperpraw/internal/core"
	"hyperpraw/internal/graphstore"
	"hyperpraw/internal/hypergraph"
	"hyperpraw/internal/profile"
)

// replaySamples bounds how many computed requests the traced run replays
// layer by layer after its window.
const replaySamples = 4

const (
	submitRoute = "POST /v1/partition"
	resultRoute = "GET /v1/jobs/{id}/result"
)

func (r *runner) verifyContext() context.Context {
	if r.tr == nil {
		return context.Background()
	}
	return r.tr.layerContext("verify")
}

// hookStores times every WAL append and compaction of the stack's durable
// nodes, with the bytes each append added to the log.
func hookStores(st *stack, tr *tracer) {
	ctx := tr.layerContext("store")
	for _, n := range st.nodes {
		if n.jobs == nil {
			continue
		}
		wal := filepath.Join(n.jobs.Dir(), "wal.log")
		var mu sync.Mutex
		var size int64
		if fi, err := os.Stat(wal); err == nil {
			size = fi.Size()
		}
		n.jobs.SetTimingHooks(func(d time.Duration) {
			end := time.Now()
			attrs := map[string]float64{}
			if fi, err := os.Stat(wal); err == nil {
				mu.Lock()
				grown := fi.Size() - size
				if grown < 0 { // compacted: the log restarted
					grown = fi.Size()
				}
				size = fi.Size()
				mu.Unlock()
				attrs["bytes"] = float64(grown)
			}
			tr.record(ctx, "store.append", end.Add(-d), end, attrs)
		}, func(d time.Duration) {
			end := time.Now()
			tr.record(ctx, "store.compact", end.Add(-d), end, nil)
		})
	}
}

// replay times the in-process layers from outside: each layer's public
// function is called on the inputs and results of the first computed
// requests of the window.
func replay(w workload, r *runner, tr *tracer) error {
	ctx := tr.layerContext("replay")
	var samples []*outcome
	for _, o := range r.outs {
		if o.kind == opCompute && o.err == nil {
			samples = append(samples, o)
		}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].req < samples[j].req })
	if len(samples) > replaySamples {
		samples = samples[:replaySamples]
	}
	seen := map[string]bool{}
	for _, o := range samples {
		in, err := w.input(o.req)
		if err != nil {
			return err
		}
		m, err := in.wire.Machine.Build()
		if err != nil {
			return err
		}
		if key := in.wire.Machine.Key(); !seen[key] {
			seen[key] = true
			var bw [][]float64
			tr.timed(ctx, "profile.ring", func(map[string]float64) { bw = profile.RingProfile(m, profile.DefaultConfig()) })
			cost := profile.CostMatrix(bw)
			tr.timed(ctx, "core.cost_index", func(map[string]float64) { core.BuildCostIndex(cost) })
		}
		if err := replayGraph(ctx, tr, in); err != nil {
			return err
		}
		replayKernel(ctx, tr, in)
		var simErr error
		tr.timed(ctx, "bench.simulate", func(map[string]float64) {
			_, simErr = hyperpraw.SimulateBenchmark(m, in.graph, o.res.Parts, in.wire.Bench.Options())
		})
		if simErr != nil {
			return simErr
		}
		tr.timed(ctx, "service.result_encode", func(a map[string]float64) {
			var buf bytes.Buffer
			json.NewEncoder(&buf).Encode(o.res) //nolint:errcheck // a bytes.Buffer cannot fail
			a["bytes"] = float64(buf.Len())
		})
	}
	return nil
}

// replayGraph times the serialise, parse, fingerprint and intern layers
// on one input.
func replayGraph(ctx context.Context, tr *tracer, in *input) error {
	var err error
	tr.timed(ctx, "hypergraph.write_hmetis", func(map[string]float64) {
		err = hypergraph.WriteHMetis(&bytes.Buffer{}, in.graph)
	})
	if err != nil {
		return err
	}
	tr.timed(ctx, "hypergraph.parse_batch", func(map[string]float64) {
		_, err = hyperpraw.UnmarshalHMetis(bytes.NewReader(in.text))
	})
	if err != nil {
		return err
	}
	tr.timed(ctx, "hypergraph.parse_stream", func(map[string]float64) {
		var b hypergraph.CSRBuilder
		if err = hypergraph.ParseHMetisStream(bytes.NewReader(in.text), &b); err == nil {
			_, err = b.RawCSR()
		}
	})
	if err != nil {
		return err
	}
	tr.timed(ctx, "hypergraph.fingerprint", func(map[string]float64) { hypergraph.Fingerprint(in.graph) })
	for _, name := range []string{"graphstore.put", "graphstore.ingest"} {
		gs, err := graphstore.Open(graphstore.Config{})
		if err != nil {
			return err
		}
		var release func()
		tr.timed(ctx, name, func(map[string]float64) {
			if name == "graphstore.put" {
				_, release, err = gs.Put(in.graph)
			} else {
				_, release, err = gs.IngestReader(bytes.NewReader(in.text), "replay")
			}
		})
		if err == nil {
			release()
		}
		gs.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// replayKernel reruns the request's partitioner with a progress hook, so
// every restreaming pass gets its own span under the kernel's.
func replayKernel(ctx context.Context, tr *tracer, in *input) {
	opts := in.wire.Options.Options()
	opts.RecordHistory = true
	kctx, ks := tr.start(ctx, "core.kernel")
	last := time.Now()
	opts.Progress = func(st hyperpraw.IterationStats) {
		now := time.Now()
		tr.record(kctx, "core.pass", last, now, map[string]float64{"moves": float64(st.Moves)})
		last = now
	}
	if in.wire.Algorithm == string(hyperpraw.AlgorithmOblivious) {
		hyperpraw.PartitionBasic(in.graph, *in.env, opts) //nolint:errcheck // same inputs the service already ran
	} else {
		hyperpraw.PartitionAware(in.graph, *in.env, opts) //nolint:errcheck // same inputs the service already ran
	}
	tr.end(ks)
}

// layerMetrics derives the per-layer metrics from the traced run's spans,
// the nodes' job records and the stack's counters.
func layerMetrics(w workload, r *runner, st *stack, tr *tracer, before, after cacheCounts) (map[string]metric, error) {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	for _, n := range st.nodes {
		if n.jobs != nil {
			if err := n.jobs.Compact(); err != nil {
				return nil, err
			}
		}
	}
	if err := replay(w, r, tr); err != nil {
		return nil, err
	}
	spans := tr.all()
	byName := map[string][]*span{}
	kids := map[int64][]*span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	durs := func(name string) []float64 {
		var xs []float64
		for _, s := range byName[name] {
			xs = append(xs, s.dur())
		}
		return xs
	}
	childTime := func(s *span, prefix string) float64 {
		var t float64
		for _, c := range kids[s.ID] {
			if strings.HasPrefix(c.Name, prefix) {
				t += c.dur()
			}
		}
		return t
	}
	self := func(s *span) float64 { return s.dur() - childTime(s, "") }

	backend := map[string]hyperpraw.JobInfo{}
	for _, n := range st.nodes {
		for _, info := range n.svc.Jobs() {
			backend[info.Trace] = info
		}
	}

	// Client and gateway layers, per traced computed job.
	var marshal, submit, fetch, polls, overshoot, gwSubmit, gwResult, replicate []float64
	var queue, exec, unattributed, tracedLat, untracedLat []float64
	var execSum, latSum float64
	for _, o := range r.outs {
		if o.kind != opCompute || o.err != nil {
			continue
		}
		if !o.traced {
			untracedLat = append(untracedLat, o.latency())
			continue
		}
		tracedLat = append(tracedLat, o.latency())
		root := findSpan(byName[string(opCompute)], o.trace)
		if root == nil {
			continue
		}
		var sub, post, wait, last *span
		for _, c := range kids[root.ID] {
			switch c.Name {
			case "client.submit":
				sub = c
			case "client.wait":
				wait = c
			}
		}
		if sub == nil || wait == nil {
			continue
		}
		for _, c := range kids[sub.ID] {
			if c.Name == "client "+submitRoute {
				post = c
			}
		}
		n := 0
		for _, c := range kids[wait.ID] {
			if c.Name == "client "+resultRoute {
				n++
				if last == nil || c.End > last.End {
					last = c
				}
			}
		}
		if post == nil || last == nil {
			continue
		}
		marshal = append(marshal, self(sub))
		submit = append(submit, post.dur())
		fetch = append(fetch, last.dur())
		polls = append(polls, float64(n))
		if st.gw != nil {
			gwSubmit = append(gwSubmit, self(post))
			gwResult = append(gwResult, self(last))
			if rep := childTime(post, "upstream POST /v1/hypergraphs") + childTime(post, "upstream PUT /v1/hypergraphs"); rep > 0 {
				replicate = append(replicate, rep)
			}
		}
		info, ok := backend[o.trace]
		if !ok {
			continue
		}
		q, x := info.QueueWaitMS/1e3, info.ExecMS/1e3
		queue = append(queue, q)
		exec = append(exec, x)
		execSum += x
		latSum += o.latency()
		overshoot = append(overshoot, o.end.Sub(time.UnixMilli(info.FinishedAt)).Seconds())
		// Blocking-path coverage: the submit call, the backend's queue wait
		// and execution, and the final fetch. They can overlap (a worker may
		// start before the submit response arrives), so take their union.
		backendFrom := time.UnixMilli(info.SubmittedAt).Sub(tr.epoch).Nanoseconds()
		backendTo := time.UnixMilli(info.FinishedAt).Sub(tr.epoch).Nanoseconds()
		covered := union(root.Start, root.End, [][2]int64{
			{sub.Start, sub.End}, {backendFrom, backendTo}, {last.Start, last.End},
		})
		unattributed = append(unattributed, root.dur()-covered)
	}
	set("client.marshal_s", median(marshal), "s")
	set("client.submit_s", median(submit), "s")
	set("client.result_fetch_s", median(fetch), "s")
	set("client.polls_per_job", mean(polls), "count")
	set("client.wait_overshoot_s", median(overshoot), "s")
	set("client.upload_s", median(durs(string(opUpload))), "s")
	set("gateway.submit_s", median(gwSubmit), "s")
	set("gateway.result_s", median(gwResult), "s")
	set("gateway.replicate_s", median(replicate), "s")
	set("gateway.hit_latency_s", median(durs(string(opHit))), "s")
	set("gateway.result_cache_hit_ratio", ratio(after.gwHits-before.gwHits, after.gwMisses-before.gwMisses), "ratio")
	failovers := 0.0
	if st.gw != nil {
		v, err := scrapeCounter(st.gwURL, "hpgate_failovers_total")
		if err != nil {
			return nil, err
		}
		failovers = v
	}
	set("gateway.failovers", failovers, "count")

	set("service.queue_wait_s", median(queue), "s")
	set("service.exec_s", median(exec), "s")
	set("service.result_encode_s", median(durs("service.result_encode")), "s")
	set("service.result_bytes", median(attrs(byName["service.result_encode"], "bytes")), "bytes")
	set("service.result_cache_hit_ratio", ratio(after.resultHits-before.resultHits, after.resultMisses-before.resultMisses), "ratio")
	set("service.env_cache_hit_ratio", ratio(after.envHits-before.envHits, after.envMisses-before.envMisses), "ratio")
	rejected := 0.0
	for _, s := range spans {
		if code := s.Attrs["status"]; code == 429 || code == 503 {
			rejected++
		}
	}
	set("service.rejected", rejected, "count")

	set("profile.ring_s", median(durs("profile.ring")), "s")
	set("core.cost_index_s", median(durs("core.cost_index")), "s")
	set("core.kernel_s", median(durs("core.kernel")), "s")
	set("core.pass_s", median(durs("core.pass")), "s")
	var passes []float64
	var moves, visits, fallbacks, fast float64
	for _, o := range r.outs {
		if o.kind != opCompute || o.err != nil || o.res.Kernel == nil {
			continue
		}
		k := o.res.Kernel
		passes = append(passes, float64(k.Passes))
		moves += float64(k.Moves)
		visits += float64(k.Passes) * float64(len(o.res.Parts))
		fallbacks += float64(k.ExhaustiveFallbacks)
		fast += float64(k.ScanUniform + k.ScanBounded + k.ScanBlocked)
	}
	set("core.passes", median(passes), "count")
	set("core.move_rate", div(moves, visits), "ratio")
	set("core.scan_fallback_ratio", div(fallbacks, fast), "ratio")
	set("metrics.evaluate_s", median(durs("metrics.evaluate")), "s")
	set("bench.simulate_s", median(durs("bench.simulate")), "s")

	for _, name := range []string{"write_hmetis", "parse_batch", "parse_stream", "fingerprint"} {
		set("hypergraph."+name+"_s", median(durs("hypergraph."+name)), "s")
	}
	set("graphstore.put_s", median(durs("graphstore.put")), "s")
	set("graphstore.ingest_s", median(durs("graphstore.ingest")), "s")
	var resident int64
	for _, n := range st.nodes {
		resident += n.graphs.Stats().Bytes
	}
	if st.gw != nil {
		resident += st.gw.Graphs().Stats().Bytes
	}
	set("graphstore.resident_mb", float64(resident)/(1<<20), "MB")

	set("store.append_s", median(durs("store.append")), "s")
	set("store.compact_s", median(durs("store.compact")), "s")
	set("store.append_bytes", median(attrs(byName["store.append"], "bytes")), "bytes")

	set("trace.unattributed_s", median(unattributed), "s")
	set("trace.overhead_s", median(tracedLat)-median(untracedLat), "s")
	set("trace.exec_share", div(execSum, latSum), "ratio")
	return m, nil
}

func findSpan(spans []*span, trace string) *span {
	for _, s := range spans {
		if s.Trace == trace {
			return s
		}
	}
	return nil
}

// union is the length in seconds of the union of intervals, clipped to
// [lo, hi].
func union(lo, hi int64, intervals [][2]int64) float64 {
	sort.Slice(intervals, func(i, j int) bool { return intervals[i][0] < intervals[j][0] })
	var total, end int64 = 0, lo
	for _, iv := range intervals {
		from, to := max(iv[0], end), min(iv[1], hi)
		if to > from {
			total += to - from
			end = to
		}
	}
	return float64(total) / 1e9
}

func attrs(spans []*span, key string) []float64 {
	var xs []float64
	for _, s := range spans {
		if v, ok := s.Attrs[key]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ratio(hits, misses uint64) float64 { return div(float64(hits), float64(hits+misses)) }
