// Command servebench is the hgserve benchmark. For one workload it
// generates the data hypergraph, the queries and the ingest batches from a
// seed, starts the built hgserve binary as its own process, drives it over
// loopback HTTP with at most two connections, checks every answer against
// the library, and prints one JSON result line last on standard output.
//
// Usage (servebench/run.sh builds both binaries first):
//
//	servebench -hgserve bin/hgserve -workload enumerate -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// it carries the per-layer metrics of a traced run (see trace.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		wname   = flag.String("workload", "", "workload to run: enumerate, lookup or ingest")
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Int("seconds", 20, "measurement budget in seconds; whole rounds run until it is spent")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		hgserve = flag.String("hgserve", "", "path of the built hgserve binary")
		work    = flag.String("workdir", ".bench_build/work", "scratch directory for data files and WALs")
	)
	flag.Parse()
	w, ok := workloadByName(*wname)
	if !ok || *hgserve == "" || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "servebench: need -workload (enumerate|lookup|ingest), -hgserve and -seconds >= 1\n")
		os.Exit(2)
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(dir)

	start := time.Now()
	in, err := generate(w, *seed, dir)
	if err != nil {
		os.RemoveAll(dir)
		fatalf("generate inputs: %v", err)
	}
	logf("inputs ready in %s: %d vertices, %d edges, %d enumerate queries (%d embeddings), %d lookup queries, %d ingest batches",
		time.Since(start).Round(time.Millisecond), in.data.NumVertices(), in.data.NumEdges(),
		len(in.enum), in.enumEmbeddings(), len(in.lookup), len(in.batches))

	b := &bench{w: w, in: in, bin: *hgserve, dir: dir}
	budget := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 1 {
		res, err = b.tracedRun(budget, filepath.Join(filepath.Dir(*work), "traces", fmt.Sprintf("%s-%d.json", w.name, *seed)))
	} else {
		res, err = b.run(budget)
	}
	if err != nil {
		os.RemoveAll(dir)
		fatalf("%v", err)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		os.RemoveAll(dir)
		fatalf("%v", err)
	}
	fmt.Println(string(out))
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "servebench: "+format+"\n", args...)
}

func fatalf(format string, args ...any) {
	logf(format, args...)
	os.Exit(1)
}
