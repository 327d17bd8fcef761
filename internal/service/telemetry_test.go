package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"hyperpraw"
	"hyperpraw/client"
	"hyperpraw/internal/telemetry"
)

// scrapeMetrics fetches url's /metrics, lints the exposition, and returns
// the body.
func scrapeMetrics(t *testing.T, hc *http.Client, base string) string {
	t.Helper()
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if errs := telemetry.LintExposition(bytes.NewReader(body)); len(errs) != 0 {
		t.Fatalf("exposition lint: %v", errs)
	}
	return string(body)
}

// metricValue finds the sample for the exact series (name plus label set as
// exposed) and returns its value, or -1 when the series is absent.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, rest)
			}
			return v
		}
	}
	return -1
}

// eventually retries fn for a while: worker goroutines record terminal
// counters just after publishing the job's terminal status, so a scrape
// racing Wait's return may be one increment behind.
func eventually(t *testing.T, what string, fn func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !fn() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServiceTelemetryEndToEnd drives one backend through submit → done
// twice (the second run a result-cache hit) and asserts the full
// observability contract: trace adoption and echo, per-job timing fields,
// kernel counters on the result, scraped metric values, and the /healthz
// telemetry snapshot.
func TestServiceTelemetryEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	ts, s := newTestServer(t, Config{Workers: 1, Metrics: reg})
	hc := ts.Client()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	body, err := json.Marshal(hyperpraw.PartitionRequest{
		Algorithm: "aware",
		Machine:   hyperpraw.MachineSpec{Kind: "archer", Cores: 4},
		HMetis:    tinyHMetis,
	})
	if err != nil {
		t.Fatal(err)
	}
	const trace = "svc-e2e-trace-01"
	submit := func(traceID string) hyperpraw.JobInfo {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/partition", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(telemetry.TraceHeader, traceID)
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status %d", resp.StatusCode)
		}
		if got := resp.Header.Get(telemetry.TraceHeader); got != traceID {
			t.Fatalf("trace header echoed %q, want %q", got, traceID)
		}
		var info hyperpraw.JobInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		if info.Trace != traceID {
			t.Fatalf("JobInfo.Trace = %q, want %q", info.Trace, traceID)
		}
		return info
	}

	info := submit(trace)
	res, done, err := s.Wait(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != hyperpraw.JobDone {
		t.Fatalf("status %s: %s", done.Status, done.Error)
	}
	if done.Trace != trace {
		t.Fatalf("terminal JobInfo.Trace = %q, want %q", done.Trace, trace)
	}
	if done.QueueWaitMS < 0 || done.ExecMS <= 0 {
		t.Fatalf("timing fields queue_wait=%g exec=%g", done.QueueWaitMS, done.ExecMS)
	}
	if res.Kernel == nil || res.Kernel.Passes <= 0 || res.Kernel.Moves < 0 {
		t.Fatalf("result kernel stats %+v", res.Kernel)
	}

	// Resubmission of the same hypergraph: a result-cache hit that must
	// still carry the computing run's kernel counters.
	info2 := submit("svc-e2e-trace-02")
	res2, _, err := s.Wait(ctx, info2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Kernel == nil || res2.Kernel.Passes != res.Kernel.Passes {
		t.Fatalf("cache-hit kernel stats %+v, want those of the computing run %+v", res2.Kernel, res.Kernel)
	}

	eventually(t, "both jobs counted done", func() bool {
		b := scrapeMetrics(t, hc, ts.URL)
		return metricValue(t, b, `hyperpraw_jobs_completed_total{status="done"}`) == 2
	})
	scraped := scrapeMetrics(t, hc, ts.URL)
	for series, want := range map[string]float64{
		`hyperpraw_jobs_submitted_total`:                                                  2,
		`hyperpraw_jobs_completed_total{status="done"}`:                                   2,
		`hyperpraw_cache_hits_total{cache="result"}`:                                      1,
		`hyperpraw_http_requests_total{method="POST",route="/v1/partition",status="202"}`: 2,
		`hyperpraw_workers`: 1,
	} {
		if got := metricValue(t, scraped, series); got != want {
			t.Errorf("%s = %g, want %g", series, got, want)
		}
	}
	if got := metricValue(t, scraped, `hyperpraw_kernel_events_total{event="passes"}`); got <= 0 {
		t.Errorf("kernel passes counter = %g, want > 0", got)
	}
	if got := metricValue(t, scraped, `hyperpraw_job_stage_seconds_count{stage="total"}`); got != 2 {
		t.Errorf("stage total count = %g, want 2", got)
	}

	c := client.New(ts.URL, hc)
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Telemetry == nil {
		t.Fatal("/healthz telemetry snapshot missing")
	}
	if h.Telemetry.JobsSubmitted != 2 || h.Telemetry.JobsCompleted != 2 || h.Telemetry.JobsFailed != 0 {
		t.Fatalf("snapshot %+v", h.Telemetry)
	}
	if h.Telemetry.UptimeSeconds <= 0 || h.Telemetry.GoVersion == "" {
		t.Fatalf("snapshot identity fields %+v", h.Telemetry)
	}
}

// TestServiceTelemetryDisabled pins the zero-config path: without a
// registry there is no /metrics route, no snapshot, and nothing panics.
func TestServiceTelemetryDisabled(t *testing.T) {
	ts, s := newTestServer(t, Config{Workers: 1})
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics without telemetry: status %d, want 404", resp.StatusCode)
	}
	info, err := s.Submit(tinyRequest(t, "aware", hyperpraw.MachineSpec{Kind: "archer", Cores: 4}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, done, err := s.Wait(ctx, info.ID); err != nil || done.Status != hyperpraw.JobDone {
		t.Fatalf("job without telemetry: %v / %+v", err, done)
	}
	if s.Health().Telemetry != nil {
		t.Fatal("snapshot present without a registry")
	}
}

// TestKernelEventsShowPinWalk checks that a job's record and the kernel
// event family show which neighbour-gather path ran: a graph inside the
// neighbour-CSR budget records no pin-walk run, while one hyperedge of
// 1100 pins (1100·1099 neighbour entries, past the 2^20 floor) is served
// by the pin walk and counted once under event="pin_walk_runs".
func TestKernelEventsShowPinWalk(t *testing.T) {
	reg := telemetry.NewRegistry()
	ts, s := newTestServer(t, Config{Workers: 1, Metrics: reg})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wide strings.Builder
	wide.WriteString("1 1100\n")
	for v := 1; v <= 1100; v++ {
		wide.WriteString(strconv.Itoa(v) + " ")
	}
	wide.WriteString("\n")
	for _, tc := range []struct {
		hmetis  string
		pinWalk int64
	}{
		{tinyHMetis, 0},
		{wide.String(), 1},
	} {
		req, err := ParseRequest(hyperpraw.PartitionRequest{
			Algorithm: "basic",
			Machine:   hyperpraw.MachineSpec{Kind: "archer", Cores: 4},
			HMetis:    tc.hmetis,
		})
		if err != nil {
			t.Fatal(err)
		}
		info, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		res, done, err := s.Wait(ctx, info.ID)
		if err != nil || done.Status != hyperpraw.JobDone {
			t.Fatalf("job %s: %v %s", info.ID, err, done.Error)
		}
		if res.Kernel == nil || res.Kernel.PinWalkRuns != tc.pinWalk {
			t.Fatalf("job %s: kernel stats %+v, want %d pin-walk runs", info.ID, res.Kernel, tc.pinWalk)
		}
	}
	eventually(t, "pin-walk run counted", func() bool {
		return metricValue(t, scrapeMetrics(t, ts.Client(), ts.URL),
			`hyperpraw_kernel_events_total{event="pin_walk_runs"}`) == 1
	})
}
