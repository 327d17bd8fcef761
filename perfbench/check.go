package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hyperpraw"
	"hyperpraw/internal/metrics"
)

// report tallies verification: failed counts operations that errored, were
// refused, or returned a result failing its check; checks counts the
// results that failed a correctness check or a cache-design assertion.
type report struct {
	mu           sync.Mutex
	failed       int64
	checks       int64
	verifiedJobs int64
	msgs         []string
}

func (rp *report) fail(format string, args ...any) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.checks++
	if len(rp.msgs) < 10 {
		rp.msgs = append(rp.msgs, fmt.Sprintf(format, args...))
	}
}

func (rp *report) ok() bool { return rp.checks == 0 }

// checkResult is the per-result correctness check: one part per vertex,
// every part in [0,k), imbalance within the requested tolerance, and the
// benchmark's own metrics.Evaluate reproducing the reported comm cost.
func checkResult(in *input, res *hyperpraw.JobResult) error {
	h := in.graph
	k := in.wire.Machine.Cores
	if len(res.Parts) != h.NumVertices() {
		return fmt.Errorf("%d parts for %d vertices", len(res.Parts), h.NumVertices())
	}
	if res.K != k {
		return fmt.Errorf("k=%d, want %d", res.K, k)
	}
	for v, p := range res.Parts {
		if p < 0 || int(p) >= k {
			return fmt.Errorf("vertex %d in part %d outside [0,%d)", v, p, k)
		}
	}
	rep := metrics.Evaluate(h, res.Parts, in.env.PhysCost)
	if rep.Imbalance > in.tol+1e-9 {
		return fmt.Errorf("imbalance %.4f over tolerance %.2f", rep.Imbalance, in.tol)
	}
	if d := math.Abs(rep.CommCost - res.Report.CommCost); d > 1e-9*math.Max(1, rep.CommCost) {
		return fmt.Errorf("reported comm cost %.6f, recomputed %.6f", res.Report.CommCost, rep.CommCost)
	}
	if res.Bench == nil || !(res.Bench.MakespanSec > 0) {
		return fmt.Errorf("bench requested but no simulated makespan returned")
	}
	return nil
}

// verifyAll checks every outcome of the window, two requests at a time.
// Failed operations count against the run; each computed result is checked
// against the benchmark's own copy of its input, and every repeat must return
// exactly the payload its request first computed.
func verifyAll(w workload, r *runner, tr *tracer) *report {
	rp := &report{}
	byReq := map[int][]*outcome{}
	var reqs []int
	for _, o := range r.outs {
		if o.err != nil {
			rp.failed++
			continue
		}
		if _, ok := byReq[o.req]; !ok {
			reqs = append(reqs, o.req)
		}
		byReq[o.req] = append(byReq[o.req], o)
	}
	ctx := r.verifyContext()
	work := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				verifyRequest(ctx, w, tr, rp, i, byReq[i])
			}
		}()
	}
	for _, i := range reqs {
		work <- i
	}
	close(work)
	wg.Wait()
	rp.failed += rp.checks
	return rp
}

func verifyRequest(ctx context.Context, w workload, tr *tracer, rp *report, i int, outs []*outcome) {
	in, err := w.input(i)
	if err != nil {
		rp.fail("request %d: building the benchmark's copy: %v", i, err)
		return
	}
	var computed *hyperpraw.JobResult
	for _, o := range outs {
		if o.kind == opCompute {
			computed = o.res
		}
	}
	for _, o := range outs {
		switch o.kind {
		case opUpload:
			if want := hyperpraw.Fingerprint(in.graph); o.graph.ID != want {
				rp.fail("upload %d committed as %s, want fingerprint %s", i, o.graph.ID, want)
			}
		case opCompute:
			var err error
			tr.timed(ctx, "metrics.evaluate", func(map[string]float64) { err = checkResult(in, o.res) })
			if err != nil {
				rp.fail("request %d (%s): %v", i, o.trace, err)
				continue
			}
			rp.mu.Lock()
			rp.verifiedJobs++
			rp.mu.Unlock()
		case opHit:
			if computed == nil {
				rp.fail("repeat of request %d that never computed", i)
				continue
			}
			if !samePayload(computed, o.res) {
				rp.fail("repeat of request %d (%s) differs from its computed result", i, o.trace)
				continue
			}
			rp.mu.Lock()
			rp.verifiedJobs++
			rp.mu.Unlock()
		}
	}
}

func samePayload(a, b *hyperpraw.JobResult) bool {
	if len(a.Parts) != len(b.Parts) || a.Report.CommCost != b.Report.CommCost {
		return false
	}
	for i := range a.Parts {
		if a.Parts[i] != b.Parts[i] {
			return false
		}
	}
	return true
}

// cacheCounts is the stack's cache counters at one instant, summed over
// its nodes.
type cacheCounts struct {
	resultHits, resultMisses uint64
	envHits, envMisses       uint64
	gwHits, gwMisses         uint64
}

func snapshotCaches(st *stack) cacheCounts {
	var c cacheCounts
	for _, n := range st.nodes {
		h := n.svc.Health()
		c.resultHits += h.ResultCache.Hits
		c.resultMisses += h.ResultCache.Misses
		c.envHits += h.EnvCache.Hits
		c.envMisses += h.EnvCache.Misses
	}
	if st.gw != nil {
		if rc := st.gw.Health().ResultCache; rc != nil {
			c.gwHits, c.gwMisses = rc.Hits, rc.Misses
		}
	}
	return c
}

// checkCacheDesign asserts the cache behaviour each workload is built
// around, so a workload that quietly degenerates fails instead of looking
// fast: computed jobs miss every result cache and hit the warmed env
// cache; repeats (upload-repeat only) are all answered by the gateway.
func checkCacheDesign(w workload, r *runner, st *stack, before, after cacheCounts) error {
	hits := 0
	for _, o := range r.outs {
		if o.err != nil {
			continue
		}
		switch o.kind {
		case opCompute:
			if o.res.ResultCacheHit {
				return fmt.Errorf("request %d (%s) was a result-cache hit", o.req, o.trace)
			}
			if !o.res.EnvCacheHit {
				return fmt.Errorf("request %d (%s) missed the warmed env cache", o.req, o.trace)
			}
		case opHit:
			hits++
			if o.info.Status != hyperpraw.JobDone || o.info.Backend != "" || !o.res.ResultCacheHit {
				return fmt.Errorf("repeat of request %d (%s) was not answered by the gateway cache", o.req, o.trace)
			}
		}
	}
	if d := after.resultHits - before.resultHits; d != 0 {
		return fmt.Errorf("%d backend result-cache hits in a workload of distinct requests", d)
	}
	if d := after.gwHits - before.gwHits; d != uint64(hits) {
		return fmt.Errorf("gateway counted %d result-cache hits for %d repeats", d, hits)
	}
	if w.repeats() != (hits > 0) {
		return fmt.Errorf("%d gateway hits, want hits only on a repeating workload", hits)
	}
	if st.gw != nil {
		n, err := scrapeCounter(st.gwURL, "hpgate_failovers_total")
		if err != nil {
			return err
		}
		if n != 0 {
			return fmt.Errorf("%g gateway failovers in a fault-free run", n)
		}
	}
	return nil
}

// scrapeCounter reads one unlabelled sample from a tier's /metrics.
func scrapeCounter(base, name string) (float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("metric %s not exposed", name)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
