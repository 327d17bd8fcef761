// Command hpserve exposes the repository's partitioners as a long-lived
// HTTP JSON service backed by internal/service: a bounded worker pool, a
// job queue, and LRU caches for profiled machine environments and finished
// partition results.
//
// Usage:
//
//	hpserve -addr :8080 -workers 8
//	hpserve -addr :8080 -store /var/lib/hyperpraw/jobs   # jobs survive restarts
//	hpserve -addr :8081 -announce http://gatehost:9090   # join an hpgate cluster
//
// API (see README.md for curl examples):
//
//	POST /v1/partition          submit a job
//	POST /v1/partition/batch    submit many jobs in one request
//	GET  /v1/jobs               list jobs (?limit= ?after= ?state=)
//	GET  /v1/jobs/{id}          job status
//	GET  /v1/jobs/{id}/result   finished payload
//	GET  /v1/jobs/{id}/events   SSE per-iteration progress
//	*    /v1/hypergraphs[/...]  hypergraph resources: upload a graph once
//	                            (chunked + resumable), reference it from
//	                            any number of jobs by hypergraph_id
//	GET  /v1/algorithms         supported algorithms
//	GET  /healthz               liveness + statistics
//	GET  /metrics               Prometheus metrics
//
// Several hpserve instances can be fronted by an hpgate gateway
// (cmd/hpgate) for fingerprint-routed, failover-capable serving. With
// -announce the node registers itself in the gateway's member table and
// keeps its lease alive by heartbeat — no -backends flag needed on the
// gateway — and deregisters on graceful shutdown, at which point the
// gateway drains its jobs to the remaining peers.
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
	"hyperpraw/internal/graphstore"
	"hyperpraw/internal/service"
	"hyperpraw/internal/store"
	"hyperpraw/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 256, "job queue depth")
	maxQueue := flag.Int("max-queue", 0, "alias for -queue (admission bound; overrides it when set)")
	maxInflightBytes := flag.Int64("max-inflight-bytes", 0, "total inline-upload bytes admitted across queued and running jobs; over it submissions get 429 + Retry-After (0 = unlimited)")
	envCache := flag.Int("env-cache", 16, "profiled-environment LRU entries")
	resultCache := flag.Int("result-cache", 128, "partition-result LRU entries")
	storeDir := flag.String("store", "", "durable job store directory; jobs survive a restart (empty = in-memory only)")
	graphDir := flag.String("graph-store", "", "hypergraph arena directory; committed graphs are mmap-backed and survive restarts (empty = memory-only arenas)")
	graphCacheBytes := flag.Int64("graph-cache-bytes", 0, "resident arena byte budget; over it unreferenced uploaded graphs are evicted LRU-first (0 = unlimited; inline-request graphs are dropped when their last job finishes)")
	maxUploadBytes := flag.Int64("max-upload-bytes", 0, "one hypergraph upload's byte limit (0 = 4GiB default)")
	announce := flag.String("announce", "", "hpgate base URL to register this node with (empty = no registration)")
	advertise := flag.String("advertise", "", "base URL the gateway should dial this node at (default derived from -addr)")
	announceTTL := flag.Duration("announce-ttl", 10*time.Second, "membership lease requested from the gateway; heartbeats renew it at a third of this")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown deadline for the HTTP listener")
	drainTimeout := flag.Duration("drain-timeout", 0, "separate deadline for draining in-flight jobs; still-queued jobs are journaled when it expires (0 = use -drain)")
	pprofAddr := flag.String("pprof", "", "pprof listen address (e.g. localhost:6060); empty disables profiling")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: hpserve [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *maxQueue > 0 {
		*queue = *maxQueue
	}

	if spec, err := faultpoint.ArmFromEnv(); err != nil {
		log.Fatalf("hpserve: %s: %v", faultpoint.EnvVar, err)
	} else if spec != "" {
		log.Printf("hpserve: FAULT INJECTION ARMED via %s: %s", faultpoint.EnvVar, spec)
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir); err != nil {
			log.Fatalf("hpserve: opening job store: %v", err)
		}
		log.Printf("hpserve: durable job store at %s (%d jobs recovered)", *storeDir, st.Count())
	}

	reg := telemetry.NewRegistry()
	reg.GaugeVec("hyperpraw_build_info",
		"Build information; the value is always 1.", "go_version").
		WithLabelValues(runtime.Version()).Set(1)

	graphs, err := graphstore.Open(graphstore.Config{
		Dir:            *graphDir,
		MaxBytes:       *graphCacheBytes,
		MaxUploadBytes: *maxUploadBytes,
	})
	if err != nil {
		log.Fatalf("hpserve: opening graph store: %v", err)
	}
	if *graphDir != "" {
		log.Printf("hpserve: graph store at %s (%d graphs known)", *graphDir, graphs.Stats().Known)
	}

	svc := service.New(service.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		MaxInflightBytes: *maxInflightBytes,
		EnvCacheSize:     *envCache,
		ResultCacheSize:  *resultCache,
		Store:            st,
		Graphs:           graphs,
		Metrics:          reg,
	})
	server := &http.Server{Addr: *addr, Handler: service.NewHandler(svc)}

	var pprofServer *http.Server
	if *pprofAddr != "" {
		// net/http/pprof registers on the default mux; serving it on its own
		// listener keeps /debug off the public API surface. A real Server
		// (not ListenAndServe) so shutdown below can close it gracefully.
		pprofServer = &http.Server{Addr: *pprofAddr, Handler: http.DefaultServeMux}
		go func() {
			log.Printf("hpserve: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := pprofServer.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("hpserve: pprof listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- server.ListenAndServe() }()
	log.Printf("hpserve: listening on %s", *addr)

	var announcer *service.Announcer
	if *announce != "" {
		self := *advertise
		if self == "" {
			if strings.HasPrefix(*addr, ":") {
				self = "http://127.0.0.1" + *addr
			} else {
				self = "http://" + *addr
			}
		}
		announcer = service.StartAnnouncer(service.AnnounceConfig{
			Gateway: *announce,
			Self:    self,
			Durable: st != nil,
			TTL:     *announceTTL,
			Logf:    log.Printf,
		})
		log.Printf("hpserve: announcing %s to %s (lease %s)", self, *announce, *announceTTL)
	}

	select {
	case err := <-errc:
		log.Fatalf("hpserve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("hpserve: draining (deadline %s)", *drain)
	if announcer != nil {
		// Deregister before anything else winds down: the gateway stops
		// routing new work here immediately and synchronously drains this
		// node's jobs to its peers.
		announcer.Close()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil {
		log.Printf("hpserve: http shutdown: %v", err)
	}
	if pprofServer != nil {
		if err := pprofServer.Shutdown(shutdownCtx); err != nil {
			log.Printf("hpserve: pprof shutdown: %v", err)
		}
	}
	// The job drain gets its own deadline when -drain-timeout is set: an
	// operator can give long-running kernels more (or less) time than the
	// HTTP listener without coupling the two. On expiry the service
	// journals still-unfinished jobs so a durable restart re-queues them.
	drainCtx := shutdownCtx
	if *drainTimeout > 0 {
		var drainCancel context.CancelFunc
		drainCtx, drainCancel = context.WithTimeout(context.Background(), *drainTimeout)
		defer drainCancel()
	}
	if err := svc.Shutdown(drainCtx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			log.Printf("hpserve: drain deadline exceeded; abandoning in-flight jobs")
		} else {
			log.Printf("hpserve: service shutdown: %v", err)
		}
	}
	if st != nil {
		// Abandoned in-flight jobs stay journaled as unfinished: the next
		// start re-queues them from the store.
		if err := st.Close(); err != nil {
			log.Printf("hpserve: closing job store: %v", err)
		}
	}
	graphs.Close()
	log.Printf("hpserve: bye")
}
