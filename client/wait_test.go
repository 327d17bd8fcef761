package client_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyperpraw"
	"hyperpraw/client"
	"hyperpraw/internal/gateway"
	"hyperpraw/internal/service"
)

// waitStack is one serving tier under test — hpserve alone, or hpgate
// (with its result cache) over one hpserve — behind a wrapper that counts
// result fetches and event subscriptions and can cut event streams.
type waitStack struct {
	url     string
	svc     *service.Service
	results atomic.Int32
	events  atomic.Int32
	// cut is the number of upcoming event streams to end right after
	// their headers, before any frame.
	cut     atomic.Int32
	gate    chan struct{}
	release func()
}

var tiers = []string{"hpserve", "hpgate"}

// newWaitStack boots tier. Every job blocks in machine profiling until
// release is called; with fail set the profile is empty, so the job then
// fails. Profiles are cached per machine, so gated jobs need distinct
// machines (see wireFor).
func newWaitStack(t *testing.T, tier string, fail bool) *waitStack {
	t.Helper()
	st := &waitStack{gate: make(chan struct{})}
	var once sync.Once
	st.release = func() { once.Do(func() { close(st.gate) }) }
	svc := service.New(service.Config{Workers: 1, ProfileFunc: func(m *hyperpraw.Machine) hyperpraw.Environment {
		<-st.gate
		if fail {
			return hyperpraw.Environment{}
		}
		return hyperpraw.Profile(m)
	}})
	st.svc = svc
	var front http.Handler = service.NewHandler(svc)
	if tier == "hpgate" {
		backend := httptest.NewServer(front)
		g := gateway.New(gateway.Config{Backends: []string{backend.URL}, HealthInterval: -1, ResultCacheBytes: 1 << 20})
		t.Cleanup(func() {
			g.Close()
			backend.Close()
		})
		front = gateway.NewHandler(g)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "/result"):
			st.results.Add(1)
		case strings.HasSuffix(r.URL.Path, "/events"):
			st.events.Add(1)
			if st.cut.Add(-1) >= 0 {
				w.Header().Set("Content-Type", "text/event-stream")
				w.WriteHeader(http.StatusOK)
				return
			}
		}
		front.ServeHTTP(w, r)
	}))
	st.url = ts.URL
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		svc.Shutdown(ctx) //nolint:errcheck
	})
	t.Cleanup(st.release) // runs first: unblock gated jobs before shutdown
	return st
}

// wireFor returns a request over a small hypergraph on an archer machine
// of 4<<i cores, so each i gets its own graph and its own (gated) profile.
func wireFor(i int) hyperpraw.PartitionRequest {
	return hyperpraw.PartitionRequest{
		Algorithm: "aware",
		Machine:   hyperpraw.MachineSpec{Kind: "archer", Cores: 4 << i},
		HMetis:    fmt.Sprintf("3 8\n1 2 %d\n3 4 5\n5 6 7 8\n", 3+i%6),
	}
}

func submit(t *testing.T, c *client.Client, wire hyperpraw.PartitionRequest) hyperpraw.JobInfo {
	t.Helper()
	info, err := c.Submit(context.Background(), wire)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return info
}

type waitOutcome struct {
	res *hyperpraw.JobResult
	err error
	at  time.Time
}

func waitAsync(ctx context.Context, c *client.Client, id string) <-chan waitOutcome {
	out := make(chan waitOutcome, 1)
	go func() {
		res, err := c.Wait(ctx, id)
		out <- waitOutcome{res, err, time.Now()}
	}()
	return out
}

// TestWaitReturnsPromptlyOnFinish: a job held mid-run is awaited on its
// event stream — one result call before, one after — and Wait returns
// within a few milliseconds of the job finishing, well under any poll tick.
func TestWaitReturnsPromptlyOnFinish(t *testing.T) {
	for _, tier := range tiers {
		t.Run(tier, func(t *testing.T) {
			st := newWaitStack(t, tier, false)
			c := client.New(st.url, nil)
			info := submit(t, c, wireFor(0))
			done := waitAsync(context.Background(), c, info.ID)
			time.Sleep(150 * time.Millisecond)
			st.release()
			o := <-done
			if o.err != nil || len(o.res.Parts) != 8 {
				t.Fatalf("wait: %v (result %+v)", o.err, o.res)
			}
			jobs := st.svc.Jobs()
			if len(jobs) != 1 || jobs[0].FinishedAt == 0 {
				t.Fatalf("backend jobs %+v", jobs)
			}
			// FinishedAt has millisecond resolution: allow for the truncation.
			if lag := o.at.Sub(time.UnixMilli(jobs[0].FinishedAt)); lag > 25*time.Millisecond {
				t.Fatalf("Wait returned %v after the job finished", lag)
			}
			if r, e := st.results.Load(), st.events.Load(); r != 2 || e != 1 {
				t.Fatalf("%d result calls and %d subscriptions, want 2 and 1", r, e)
			}
		})
	}
}

// TestWaitFailedJob: a job that fails while Wait is subscribed surfaces as
// the 422 job_failed APIError.
func TestWaitFailedJob(t *testing.T) {
	for _, tier := range tiers {
		t.Run(tier, func(t *testing.T) {
			st := newWaitStack(t, tier, true)
			c := client.New(st.url, nil)
			info := submit(t, c, wireFor(0))
			done := waitAsync(context.Background(), c, info.ID)
			time.Sleep(50 * time.Millisecond)
			st.release()
			o := <-done
			var apiErr *client.APIError
			if !errors.As(o.err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity || apiErr.Code != hyperpraw.ErrCodeJobFailed {
				t.Fatalf("wait error %v, want a 422 %s APIError", o.err, hyperpraw.ErrCodeJobFailed)
			}
		})
	}
}

// TestWaitGatewayCacheHitSkipsStream: a repeat answered from the gateway's
// result cache is born done, so the first result call settles it and no
// event stream is opened.
func TestWaitGatewayCacheHitSkipsStream(t *testing.T) {
	st := newWaitStack(t, "hpgate", false)
	st.release()
	c := client.New(st.url, nil)
	ctx := context.Background()
	first, err := c.Wait(ctx, submit(t, c, wireFor(0)).ID)
	if err != nil {
		t.Fatal(err)
	}
	info := submit(t, c, wireFor(0))
	if info.Status != hyperpraw.JobDone {
		t.Fatalf("repeat submitted as %s, want a done cache hit", info.Status)
	}
	st.results.Store(0)
	st.events.Store(0)
	res, err := c.Wait(ctx, info.ID)
	if err != nil || !res.ResultCacheHit || res.Report.CommCost != first.Report.CommCost {
		t.Fatalf("cache hit wait: %v (result %+v)", err, res)
	}
	if r, e := st.results.Load(), st.events.Load(); r != 1 || e != 0 {
		t.Fatalf("%d result calls and %d subscriptions, want 1 and 0", r, e)
	}
}

// TestWaitResubscribesAfterCutStream: an event stream that ends without
// its final frame sends Wait back to the result call and, the job still
// running, to a fresh subscription that sees it through.
func TestWaitResubscribesAfterCutStream(t *testing.T) {
	for _, tier := range tiers {
		t.Run(tier, func(t *testing.T) {
			st := newWaitStack(t, tier, false)
			st.cut.Store(1)
			c := client.New(st.url, nil)
			c.Retry.Backoff = time.Millisecond
			info := submit(t, c, wireFor(0))
			done := waitAsync(context.Background(), c, info.ID)
			for deadline := time.Now().Add(10 * time.Second); st.events.Load() < 2; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("no re-subscription after the cut (%d streams)", st.events.Load())
				}
			}
			st.release()
			if o := <-done; o.err != nil || len(o.res.Parts) != 8 {
				t.Fatalf("wait after a cut stream: %v (result %+v)", o.err, o.res)
			}
		})
	}
}

// TestWaitHonoursContext: cancelling the context of a Wait on an unfinished
// job returns the context's error.
func TestWaitHonoursContext(t *testing.T) {
	for _, tier := range tiers {
		t.Run(tier, func(t *testing.T) {
			st := newWaitStack(t, tier, false)
			c := client.New(st.url, nil)
			info := submit(t, c, wireFor(0))
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			if _, err := c.Wait(ctx, info.ID); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("wait error %v, want %v", err, context.DeadlineExceeded)
			}
		})
	}
}

// TestWaitReusesConnections: consecutive Waits that each ride an event
// stream keep using one keep-alive connection — every response, the 202
// and the stream after its final frame included, is read to its end
// instead of being dropped.
func TestWaitReusesConnections(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, ProfileFunc: func(m *hyperpraw.Machine) hyperpraw.Environment {
		time.Sleep(20 * time.Millisecond) // long enough for Wait to subscribe
		return hyperpraw.Profile(m)
	}})
	var conns, streams atomic.Int32
	h := service.NewHandler(svc)
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			streams.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		svc.Shutdown(context.Background()) //nolint:errcheck
	})
	// One connection at most: a dropped one shows up as a fresh dial.
	tr := &http.Transport{MaxConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	c := client.New(ts.URL, &http.Client{Transport: tr})
	const jobs = 5
	for i := 0; i < jobs; i++ {
		info := submit(t, c, wireFor(i)) // a new machine each: profiled, so slow
		if _, err := c.Wait(context.Background(), info.ID); err != nil {
			t.Fatal(err)
		}
	}
	if n := streams.Load(); n != jobs {
		t.Fatalf("%d jobs opened %d event streams, want one each", jobs, n)
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("%d jobs opened %d connections, want 1", jobs, n)
	}
}
