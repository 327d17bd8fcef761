// Command perfbench is the end-to-end benchmark of the hyperpraw serving
// stack. It boots the real tiers in process on loopback HTTP (hpserve's
// service, hpgate's gateway, the graph and job stores), drives them with
// closed-loop clients through the client package, checks every returned
// partition, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload small-inline --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, derived from spans the run records
// around every call into a layer and writes out at exit. See NOTES.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var opts runOptions
	flag.StringVar(&opts.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&opts.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&opts.seconds, "seconds", 30, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&opts.workDir, "work", filepath.Join(".bench_build", "perfbench-work"), "directory for stores, temp files and span dumps")
	flag.Parse()
	opts.trace = *trace == 1

	newWorkload, ok := workloads[opts.workload]
	if !ok || flag.NArg() != 0 || opts.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	// The service logs one line per job; the benchmark measures the stack,
	// not the terminal it would print to.
	log.SetOutput(io.Discard)

	stamp := hostStamp()
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%d trace=%t on %s\n",
		opts.workload, opts.seed, opts.seconds, opts.trace, stamp)

	res, err := execute(newWorkload(), opts, stamp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	envLine, _ := json.Marshal(map[string]any{"host": stamp})
	fmt.Println(string(envLine))
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed")
		return 1
	}
	return 0
}

// host describes the machine a result was measured on; every result is
// stamped with it, so a speed claim always names its core count.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
}

func (h host) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d cpu=%q %s", h.NProc, h.GOMAXPROCS, h.CPU, h.Go)
}

func hostStamp() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown", Go: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}
