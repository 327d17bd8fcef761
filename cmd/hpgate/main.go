// Command hpgate is the routing tier in front of N hpserve backends
// (internal/gateway): it routes each job to a backend chosen by rendezvous
// hashing on the job's hypergraph fingerprint so resubmissions hit warm
// caches, reconciles the cluster member table against observed health with
// automatic ejection and re-admission, and fails jobs over to the next
// backend when one dies. Backends running with a durable job store
// (hpserve -store) are instead waited out for -recovery-window: a
// restarted durable backend recovers its jobs from the store, which beats
// recomputing them elsewhere.
//
// Membership is declarative: backends register themselves with
// POST /v1/cluster/members (hpserve -announce) and heartbeat to renew a
// lease; a node that stops heartbeating is ejected when its lease lapses,
// and a durable node that deregisters has its jobs drained to peers.
// -backends still works and seeds the same table with static (non-leased)
// members, so a gateway may boot with no backends at all and converge as
// nodes announce.
//
// Usage:
//
//	hpgate -addr :8080 -backends http://127.0.0.1:8081,http://127.0.0.1:8082
//	hpgate -addr :8080                  # empty table; members announce themselves
//
// API (the hpserve surface, gateway-routed, plus cluster routes):
//
//	POST /v1/partition          submit a job (routed by fingerprint)
//	POST /v1/partition/batch    submit many jobs, fanned out across backends
//	GET  /v1/jobs               list gateway jobs (?limit= ?after= ?state=)
//	GET  /v1/jobs/{id}          job status
//	GET  /v1/jobs/{id}/result   finished payload
//	GET  /v1/jobs/{id}/events   SSE per-iteration progress
//	*    /v1/hypergraphs[/...]  hypergraph resources: upload a graph once
//	                            to the gateway; it is replicated to the
//	                            rendezvous-chosen backend on first use
//	GET  /v1/algorithms         supported algorithms
//	GET  /v1/backends           backend set and health
//	GET  /v1/cluster/members    member table with lease + breaker state
//	POST /v1/cluster/members    register a member / renew its lease
//	DELETE /v1/cluster/members/{url}  deregister + drain a member
//	GET  /healthz               gateway + backend health
//	GET  /metrics               Prometheus metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // profiling endpoints on the -pprof listener
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"hyperpraw/internal/faultpoint"
	"hyperpraw/internal/gateway"
	"hyperpraw/internal/graphstore"
	"hyperpraw/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	backends := flag.String("backends", "", "comma-separated hpserve base URLs seeded as static members (optional; members may instead self-register via hpserve -announce)")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "backend health probe period")
	healthTimeout := flag.Duration("health-timeout", time.Second, "single health probe deadline")
	failovers := flag.Int("failovers", 3, "max failover resubmissions per job")
	maxJobs := flag.Int("max-jobs", 4096, "retained job entries")
	recoveryWindow := flag.Duration("recovery-window", 45*time.Second, "how long to wait for a durable (-store) backend to restart before failing its jobs over (negative disables)")
	breakerThreshold := flag.Int("breaker-threshold", 1, "consecutive failures before a backend's circuit breaker opens")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "how long an open breaker withholds health probes before the half-open trial")
	spillWatermark := flag.Float64("spill-watermark", 0.8, "queue-occupancy fraction beyond which routing spills past a saturated backend (negative disables)")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "default membership lease granted to self-registered members that do not request one")
	resultCacheBytes := flag.Int64("result-cache-bytes", 0, "gateway result cache byte budget; repeat submissions of an identical request are answered without touching a backend (0 = disabled)")
	graphDir := flag.String("graph-store", "", "gateway hypergraph arena directory; uploaded graphs are mmap-backed and survive restarts (empty = memory-only)")
	graphCacheBytes := flag.Int64("graph-cache-bytes", 0, "resident arena byte budget for the gateway's graph store; over it unreferenced uploaded graphs are evicted LRU-first (0 = unlimited)")
	maxUploadBytes := flag.Int64("max-upload-bytes", 0, "one hypergraph upload's byte limit (0 = 4GiB default)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown deadline")
	pprofAddr := flag.String("pprof", "", "pprof listen address (e.g. localhost:6060); empty disables profiling")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: hpgate [-backends URL[,URL...]] [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	if spec, err := faultpoint.ArmFromEnv(); err != nil {
		log.Fatalf("hpgate: %s: %v", faultpoint.EnvVar, err)
	} else if spec != "" {
		log.Printf("hpgate: FAULT INJECTION ARMED via %s: %s", faultpoint.EnvVar, spec)
	}

	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}

	reg := telemetry.NewRegistry()
	reg.GaugeVec("hpgate_build_info",
		"Build information; the value is always 1.", "go_version").
		WithLabelValues(runtime.Version()).Set(1)

	graphs, err := graphstore.Open(graphstore.Config{
		Dir:            *graphDir,
		MaxBytes:       *graphCacheBytes,
		MaxUploadBytes: *maxUploadBytes,
	})
	if err != nil {
		log.Fatalf("hpgate: opening graph store: %v", err)
	}
	if *graphDir != "" {
		log.Printf("hpgate: graph store at %s (%d graphs known)", *graphDir, graphs.Stats().Known)
	}

	gw := gateway.New(gateway.Config{
		Backends:         urls,
		HealthInterval:   *healthInterval,
		HealthTimeout:    *healthTimeout,
		FailoverLimit:    *failovers,
		MaxJobs:          *maxJobs,
		RecoveryWindow:   *recoveryWindow,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		SpillWatermark:   *spillWatermark,
		LeaseTTL:         *leaseTTL,
		ResultCacheBytes: *resultCacheBytes,
		Metrics:          reg,
		Graphs:           graphs,
	})
	server := &http.Server{Addr: *addr, Handler: gateway.NewHandler(gw)}

	var pprofServer *http.Server
	if *pprofAddr != "" {
		// net/http/pprof registers on the default mux; a dedicated listener
		// keeps /debug off the public API surface, and a real Server lets
		// shutdown below close it gracefully.
		pprofServer = &http.Server{Addr: *pprofAddr, Handler: http.DefaultServeMux}
		go func() {
			log.Printf("hpgate: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := pprofServer.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("hpgate: pprof listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- server.ListenAndServe() }()
	if len(urls) == 0 {
		log.Printf("hpgate: listening on %s with an empty member table; waiting for members to announce", *addr)
	} else {
		log.Printf("hpgate: listening on %s, fronting %d seed backends: %s", *addr, len(urls), strings.Join(urls, ", "))
	}

	select {
	case err := <-errc:
		log.Fatalf("hpgate: %v", err)
	case <-ctx.Done():
	}

	log.Printf("hpgate: draining (deadline %s)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil {
		log.Printf("hpgate: http shutdown: %v", err)
	}
	if pprofServer != nil {
		if err := pprofServer.Shutdown(shutdownCtx); err != nil {
			log.Printf("hpgate: pprof shutdown: %v", err)
		}
	}
	gw.Close()
	graphs.Close()
	log.Printf("hpgate: bye")
}
