package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"

	"hyperpraw"
	"hyperpraw/internal/hypergraph"
)

// workload is one seeded traffic mix over one stack topology.
type workload interface {
	spec() stackSpec
	// generate builds the inputs from the seed: graphs, documents and the
	// request list. It is not part of setup_s.
	generate(seed uint64) error
	// setup uploads what the window needs and warms the env caches on a
	// freshly booted stack.
	setup(ctx context.Context, st *stack) error
	// step is one closed-loop iteration of one client; false ends that
	// client's loop.
	step(ctx context.Context, r *runner, st *stack, client int) bool
	listLen() int
	// minJobs is the computed-job count a window must reach before it
	// ends, so job_latency_p90_s has at least ten samples beyond it.
	minJobs() int
	// refPrefix is how many leading requests comm_cost and
	// sim_makespan_s average over.
	refPrefix() int
	// input returns the benchmark's own copy of request i: the graph, the
	// environment of its machine and the tolerance it asked for.
	input(i int) (*input, error)
	// repeats reports whether the workload resubmits finished requests,
	// which must then all be gateway result-cache hits; otherwise no job
	// may hit any result cache.
	repeats() bool
}

type input struct {
	graph *hypergraph.Hypergraph
	text  []byte // the hMETIS document the stack received
	wire  hyperpraw.PartitionRequest
	env   *hyperpraw.Environment
	tol   float64
}

var workloads = map[string]func() workload{
	"kernel-large":  func() workload { return &kernelLarge{} },
	"small-inline":  func() workload { return &smallInline{} },
	"upload-repeat": func() workload { return &uploadRepeat{} },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// minJobsForP90 puts ten samples beyond the 90th percentile.
const minJobsForP90 = 100

var (
	archer256 = hyperpraw.MachineSpec{Kind: "archer", Cores: 256, Seed: 1}
	cloud256  = hyperpraw.MachineSpec{Kind: "cloud", Cores: 256, Seed: 1}
	archer32  = hyperpraw.MachineSpec{Kind: "archer", Cores: 32, Seed: 1}
)

// profileAll profiles every machine once, for the benchmark's own checks.
func profileAll(specs ...hyperpraw.MachineSpec) (map[string]*hyperpraw.Environment, error) {
	envs := map[string]*hyperpraw.Environment{}
	for _, s := range specs {
		m, err := s.Build()
		if err != nil {
			return nil, err
		}
		env := hyperpraw.Profile(m)
		envs[s.Key()] = &env
	}
	return envs, nil
}

func hmetisText(h *hypergraph.Hypergraph) []byte {
	var buf bytes.Buffer
	hypergraph.WriteHMetis(&buf, h) //nolint:errcheck // a bytes.Buffer cannot fail
	return buf.Bytes()
}

func withTolerance(tol float64) *hyperpraw.ServeOptions {
	return &hyperpraw.ServeOptions{ImbalanceTolerance: tol}
}

// warmEnvs runs one small job per machine on every node, directly, so
// each node's env cache holds the machines the window uses.
func warmEnvs(ctx context.Context, st *stack, text []byte, machines ...hyperpraw.MachineSpec) error {
	for _, c := range st.direct {
		for _, m := range machines {
			res, err := c.Partition(ctx, hyperpraw.PartitionRequest{Algorithm: "aware", Machine: m, HMetis: string(text)})
			if err != nil {
				return fmt.Errorf("warming %s: %w", m.Key(), err)
			}
			if len(res.Parts) == 0 {
				return fmt.Errorf("warming %s: empty partition", m.Key())
			}
		}
	}
	return nil
}

// kernelLarge: hpserve alone, webbase-1M-class graphs of 50k vertices
// uploaded during set-up and partitioned by reference at p=256. The
// kernel dominates every job; each request is distinct.
type kernelLarge struct {
	texts [][]byte
	reqs  []input
	warm  []byte
}

const (
	// klGraphs is large so the tail of job latency, set by oblivious runs
	// with many passes, averages over many graphs in every window.
	klGraphs = 32
	klScale  = 0.05
)

// Each graph is requested once per machine and algorithm.
var (
	klMachines   = []hyperpraw.MachineSpec{archer256, cloud256}
	klAlgorithms = []string{"aware", "oblivious"}
)

func (w *kernelLarge) spec() stackSpec { return stackSpec{backends: 1, workers: 2} }
func (w *kernelLarge) listLen() int    { return len(w.reqs) }

// minJobs covers the whole list: every window runs every request once,
// so the latency mix (aware and oblivious, both machines, all graphs) is
// the same on every run of a seed.
func (w *kernelLarge) minJobs() int   { return len(w.reqs) }
func (w *kernelLarge) refPrefix() int { return len(w.reqs) }
func (w *kernelLarge) repeats() bool  { return false }

func (w *kernelLarge) generate(seed uint64) error {
	envs, err := profileAll(klMachines...)
	if err != nil {
		return err
	}
	w.warm = hmetisText(hyperpraw.GenerateInstance("webbase-1M", 0.003, seed))
	graphs := make([]*hypergraph.Hypergraph, klGraphs)
	w.texts = make([][]byte, klGraphs)
	var wg sync.WaitGroup
	for part := 0; part < clients; part++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			for g := part; g < klGraphs; g += clients {
				graphs[g] = hyperpraw.GenerateInstance("webbase-1M", klScale, seed*1000+uint64(g))
				w.texts[g] = hmetisText(graphs[g])
			}
		}(part)
	}
	wg.Wait()
	ids := make([]string, klGraphs)
	for g, h := range graphs {
		ids[g] = hyperpraw.Fingerprint(h)
	}
	// Request-type-major order: every window covers every graph under the
	// first types, so its latency tail does not hang on a few graphs.
	for _, t := range [][2]int{{0, 0}, {1, 1}, {0, 1}, {1, 0}} {
		m, algo := klMachines[t[0]], klAlgorithms[t[1]]
		for g, h := range graphs {
			w.reqs = append(w.reqs, input{
				graph: h, text: w.texts[g], env: envs[m.Key()], tol: 1.10,
				wire: hyperpraw.PartitionRequest{
					Algorithm: algo, Machine: m, HypergraphID: ids[g],
					Options: withTolerance(1.10), Bench: &hyperpraw.ServeBenchOptions{},
				},
			})
		}
	}
	return nil
}

func (w *kernelLarge) setup(ctx context.Context, st *stack) error {
	for g, text := range w.texts {
		info, err := st.front.IngestHypergraph(ctx, text, fmt.Sprintf("webbase-%d", g))
		if err != nil {
			return fmt.Errorf("uploading graph %d: %w", g, err)
		}
		if want := w.reqs[g].wire.HypergraphID; info.ID != want {
			return fmt.Errorf("graph %d committed as %s, want fingerprint %s", g, info.ID, want)
		}
	}
	return warmEnvs(ctx, st, w.warm, klMachines...)
}

func (w *kernelLarge) step(ctx context.Context, r *runner, st *stack, _ int) bool {
	i, ok := r.claim()
	if !ok {
		return false
	}
	r.job(ctx, st.front, w.reqs[i].wire, opCompute, i)
	return true
}

func (w *kernelLarge) input(i int) (*input, error) { return &w.reqs[i], nil }

// smallInline: hpgate in front of two single-worker hpserve nodes, each
// job carrying its own ~470-vertex FEM-shell graph inline. The kernel is
// the minor part; polling, HTTP, proxying and the parse dominate.
type smallInline struct {
	seed  uint64
	texts []string // only the documents stay resident; graphs are regenerated to verify
	env   *hyperpraw.Environment
	warm  []byte
}

const (
	siJobs  = 2400
	siScale = 0.02
)

func (w *smallInline) spec() stackSpec { return stackSpec{backends: 2, workers: 1, gateway: true} }
func (w *smallInline) listLen() int    { return len(w.texts) }
func (w *smallInline) minJobs() int    { return minJobsForP90 }
func (w *smallInline) refPrefix() int  { return 256 }
func (w *smallInline) repeats() bool   { return false }

func (w *smallInline) graph(i int) *hypergraph.Hypergraph {
	return hyperpraw.GenerateInstance("ABACUS_shell_hd", siScale, w.seed*100000+uint64(i)+1)
}

func (w *smallInline) wire(i int) hyperpraw.PartitionRequest {
	return hyperpraw.PartitionRequest{
		Algorithm: "aware", Machine: archer32, HMetis: w.texts[i],
		Options: withTolerance(1.10), Bench: &hyperpraw.ServeBenchOptions{},
	}
}

func (w *smallInline) generate(seed uint64) error {
	envs, err := profileAll(archer32)
	if err != nil {
		return err
	}
	w.seed, w.env = seed, envs[archer32.Key()]
	w.warm = hmetisText(hyperpraw.GenerateInstance("ABACUS_shell_hd", siScale, seed))
	w.texts = make([]string, siJobs)
	var wg sync.WaitGroup
	for part := 0; part < clients; part++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			for i := part; i < siJobs; i += clients {
				w.texts[i] = string(hmetisText(w.graph(i)))
			}
		}(part)
	}
	wg.Wait()
	return nil
}

func (w *smallInline) setup(ctx context.Context, st *stack) error {
	return warmEnvs(ctx, st, w.warm, archer32)
}

func (w *smallInline) step(ctx context.Context, r *runner, st *stack, _ int) bool {
	i, ok := r.claim()
	if !ok {
		return false
	}
	r.job(ctx, st.front, w.wire(i), opCompute, i)
	return true
}

func (w *smallInline) input(i int) (*input, error) {
	return &input{graph: w.graph(i), text: []byte(w.texts[i]), wire: w.wire(i), env: w.env, tol: 1.10}, nil
}

// uploadRepeat: hpgate with a result cache in front of two durable
// single-worker hpserve nodes. Each loop uploads a new SAT-primal graph in
// parts, runs one job on it by reference (replication, WAL appends), then
// repeats earlier finished requests, which the gateway cache answers.
type uploadRepeat struct {
	seed   uint64
	shapes [][2]int // each base's hyperedge and vertex counts
	bodies [][]byte // each base document without its header line
	env    *hyperpraw.Environment
	warm   []byte

	mu    sync.Mutex
	bases map[int]*hypergraph.Hypergraph // regenerated on demand to verify
	wires map[int]hyperpraw.PartitionRequest
	done  []int
	rngs  [clients]*rand.Rand
}

const (
	urBases    = 32
	urVariants = 600
	urScale    = 0.02
	urRepeats  = 4
	urPartSize = 256 << 10
)

func (w *uploadRepeat) spec() stackSpec {
	return stackSpec{backends: 2, workers: 1, gateway: true, durable: true,
		resultCacheBytes: 64 << 20, graphCacheBytes: 64 << 20}
}
func (w *uploadRepeat) listLen() int   { return urVariants }
func (w *uploadRepeat) minJobs() int   { return minJobsForP90 }
func (w *uploadRepeat) refPrefix() int { return 64 }
func (w *uploadRepeat) repeats() bool  { return true }

func (w *uploadRepeat) generate(seed uint64) error {
	envs, err := profileAll(archer32)
	if err != nil {
		return err
	}
	w.seed, w.env = seed, envs[archer32.Key()]
	w.bases = map[int]*hypergraph.Hypergraph{}
	for b := 0; b < urBases; b++ {
		h := w.base(b)
		if h.HasEdgeWeights() || h.HasVertexWeights() {
			return fmt.Errorf("sat14_E02F22 generator produced a weighted graph; variants assume unweighted")
		}
		text := hmetisText(h)
		w.shapes = append(w.shapes, [2]int{h.NumEdges(), h.NumVertices()})
		w.bodies = append(w.bodies, text[bytes.IndexByte(text, '\n')+1:])
	}
	w.warm = hmetisText(hyperpraw.GenerateInstance("ABACUS_shell_hd", 0.02, seed))
	w.wires = map[int]hyperpraw.PartitionRequest{}
	for c := range w.rngs {
		w.rngs[c] = rand.New(rand.NewSource(int64(seed)*31 + int64(c)))
	}
	return nil
}

// variant returns variant i's base graph and the two-pin hyperedge that
// makes it distinct; the variants of one base have different pairs while
// i/urBases < V·(V-1).
func (w *uploadRepeat) variant(i int) (base int, a, b int) {
	base, j := i%urBases, i/urBases
	n := w.shapes[base][1]
	a = j % n
	b = (a + 1 + j/n) % n
	if a > b {
		a, b = b, a
	}
	return base, a, b
}

// document streams variant i: its base graph plus the extra hyperedge.
func (w *uploadRepeat) document(i int) io.Reader {
	base, a, b := w.variant(i)
	header := fmt.Sprintf("%d %d\n", w.shapes[base][0]+1, w.shapes[base][1])
	return io.MultiReader(bytes.NewReader([]byte(header)), bytes.NewReader(w.bodies[base]),
		bytes.NewReader([]byte(fmt.Sprintf("%d %d\n", a+1, b+1))))
}

func (w *uploadRepeat) setup(ctx context.Context, st *stack) error {
	return warmEnvs(ctx, st, w.warm, archer32)
}

func (w *uploadRepeat) step(ctx context.Context, r *runner, st *stack, c int) bool {
	i, ok := r.claim()
	if !ok {
		return false
	}
	up := r.upload(ctx, st.front, w.document(i), fmt.Sprintf("sat-%d", i), urPartSize, i)
	if up.err != nil {
		return true
	}
	wire := hyperpraw.PartitionRequest{
		Algorithm: "oblivious", Machine: archer32, HypergraphID: up.graph.ID,
		Options: withTolerance(1.10), Bench: &hyperpraw.ServeBenchOptions{},
	}
	w.mu.Lock()
	w.wires[i] = wire
	w.mu.Unlock()
	if o := r.job(ctx, st.front, wire, opCompute, i); o.err == nil {
		w.mu.Lock()
		w.done = append(w.done, i)
		w.mu.Unlock()
	}
	for k := 0; k < urRepeats; k++ {
		w.mu.Lock()
		if len(w.done) == 0 {
			w.mu.Unlock()
			break
		}
		j := w.done[w.rngs[c].Intn(len(w.done))]
		wire := w.wires[j]
		w.mu.Unlock()
		r.job(ctx, st.front, wire, opHit, j)
	}
	return true
}

// base generates base graph b of the seed.
func (w *uploadRepeat) base(b int) *hypergraph.Hypergraph {
	return hyperpraw.GenerateInstance("sat14_E02F22", urScale, w.seed*1000+uint64(b))
}

func (w *uploadRepeat) input(i int) (*input, error) {
	base, x, y := w.variant(i)
	w.mu.Lock()
	h, ok := w.bases[base]
	w.mu.Unlock()
	if !ok {
		h = w.base(base)
		w.mu.Lock()
		w.bases[base] = h
		w.mu.Unlock()
	}
	b := hypergraph.NewBuilder(h.NumVertices())
	pins := make([]int, 0, 64)
	for e := 0; e < h.NumEdges(); e++ {
		pins = pins[:0]
		for _, v := range h.Pins(e) {
			pins = append(pins, int(v))
		}
		b.AddEdge(pins...)
	}
	b.AddEdge(x, y)
	text, err := io.ReadAll(w.document(i))
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	wire := w.wires[i]
	w.mu.Unlock()
	return &input{graph: b.Build(), text: text, wire: wire, env: w.env, tol: 1.10}, nil
}
