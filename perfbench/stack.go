package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hyperpraw/client"
	"hyperpraw/internal/gateway"
	"hyperpraw/internal/graphstore"
	"hyperpraw/internal/service"
	"hyperpraw/internal/store"
	"hyperpraw/internal/telemetry"
)

// stackSpec describes the serving topology a workload runs against.
type stackSpec struct {
	backends int  // hpserve nodes
	workers  int  // service workers per node
	gateway  bool // front the nodes with an hpgate gateway
	// durable gives every node a job store and an on-disk graph store.
	durable bool
	// resultCacheBytes enables the gateway's own result cache.
	resultCacheBytes int64
	// graphCacheBytes bounds every graph store's resident arenas
	// (0 = unlimited).
	graphCacheBytes int64
}

// node is one in-process hpserve: the service behind its HTTP handler on
// a loopback listener, wired the way cmd/hpserve wires it.
type node struct {
	url    string
	svc    *service.Service
	srv    *http.Server
	graphs *graphstore.Store
	jobs   *store.Store // nil unless durable
}

// stack is a booted serving topology plus the client the workload drives
// it through.
type stack struct {
	nodes  []*node
	gw     *gateway.Gateway
	gwSrv  *http.Server
	gwURL  string
	front  *client.Client // talks to the gateway, or to the single node
	direct []*client.Client

	clientRT   *http.Transport
	upstreamRT *http.Transport
	serving    sync.WaitGroup
}

// newTransport returns a loopback transport with enough idle connections
// for every closed-loop client to keep its own.
func newTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 16
	return t
}

// boot starts the topology under dir. The client and gateway-to-backend
// transports are wrapped by tr, which records spans in a traced run and is
// a pass-through otherwise.
func boot(spec stackSpec, dir string, tr *tracer) (*stack, error) {
	st := &stack{clientRT: newTransport(), upstreamRT: newTransport()}
	fail := func(err error) (*stack, error) {
		st.close()
		return nil, err
	}
	frontHC := &http.Client{Transport: tr.wrap(st.clientRT, "client")}
	for i := 0; i < spec.backends; i++ {
		n, err := st.startNode(spec, filepath.Join(dir, fmt.Sprintf("node%d", i)))
		if err != nil {
			return fail(err)
		}
		st.nodes = append(st.nodes, n)
		st.direct = append(st.direct, client.New(n.url, frontHC))
	}
	if !spec.gateway {
		st.front = st.direct[0]
		return st, nil
	}
	urls := make([]string, len(st.nodes))
	for i, n := range st.nodes {
		urls[i] = n.url
	}
	graphs, err := graphstore.Open(graphstore.Config{MaxBytes: spec.graphCacheBytes})
	if err != nil {
		return fail(err)
	}
	st.gw = gateway.New(gateway.Config{
		Backends:         urls,
		HTTPClient:       &http.Client{Transport: tr.wrap(st.upstreamRT, "upstream")},
		ResultCacheBytes: spec.resultCacheBytes,
		Metrics:          telemetry.NewRegistry(),
		Graphs:           graphs,
	})
	srv, url, err := st.serve(gateway.NewHandler(st.gw))
	if err != nil {
		return fail(err)
	}
	st.gwSrv, st.gwURL = srv, url
	st.front = client.New(url, frontHC)
	return st, nil
}

func (st *stack) startNode(spec stackSpec, dir string) (*node, error) {
	n := &node{}
	gcfg := graphstore.Config{MaxBytes: spec.graphCacheBytes}
	if spec.durable {
		gcfg.Dir = filepath.Join(dir, "graphs")
		jobs, err := store.Open(filepath.Join(dir, "jobs"))
		if err != nil {
			return nil, err
		}
		n.jobs = jobs
	}
	graphs, err := graphstore.Open(gcfg)
	if err != nil {
		if n.jobs != nil {
			n.jobs.Close()
		}
		return nil, err
	}
	n.graphs = graphs
	n.svc = service.New(service.Config{
		Workers: spec.workers,
		Store:   n.jobs,
		Graphs:  graphs,
		Metrics: telemetry.NewRegistry(),
	})
	n.srv, n.url, err = st.serve(service.NewHandler(n.svc))
	if err != nil {
		n.shutdown()
		return nil, err
	}
	return n, nil
}

// serve runs h on a fresh loopback listener until close.
func (st *stack) serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: serving %s: %v\n", ln.Addr(), err)
		}
	}()
	return srv, "http://" + ln.Addr().String(), nil
}

func (n *node) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if n.srv != nil {
		n.srv.Shutdown(ctx) //nolint:errcheck // teardown: the listener is going away either way
	}
	n.svc.Shutdown(ctx) //nolint:errcheck // every job has finished before teardown
	n.graphs.Close()
	if n.jobs != nil {
		n.jobs.Close()
	}
}

// close stops every server, gateway and store the stack started and waits
// for their serving goroutines to return.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if st.gwSrv != nil {
		st.gwSrv.Shutdown(ctx) //nolint:errcheck // teardown
	}
	if st.gw != nil {
		st.gw.Close()
		st.gw.Graphs().Close()
	}
	for _, n := range st.nodes {
		n.shutdown()
	}
	st.serving.Wait()
	st.clientRT.CloseIdleConnections()
	st.upstreamRT.CloseIdleConnections()
}
