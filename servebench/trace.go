package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hgmatch/internal/core"
	"hgmatch/internal/engine"
	"hgmatch/internal/hgio"
	"hgmatch/internal/hypergraph"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) start(name string, parent, req int64) int64 {
	if tr == nil {
		return 0
	}
	id := tr.ids.Add(1)
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(tr.t0)), End: -1})
	tr.mu.Unlock()
	return id
}

func (tr *tracer) finish(id int64) {
	if tr == nil {
		return
	}
	end := int64(time.Since(tr.t0))
	tr.mu.Lock()
	// Spans are appended in start order, so the open one is found by a
	// short scan back from the end.
	for i := len(tr.spans) - 1; i >= 0; i-- {
		if tr.spans[i].ID == id {
			tr.spans[i].End = end
			break
		}
	}
	tr.mu.Unlock()
}

// reqID hands out a request identifier (0 when untraced).
func (tr *tracer) reqID() int64 {
	if tr == nil {
		return 0
	}
	return tr.reqs.Add(1)
}

// timed runs fn inside a span and returns its duration.
func (tr *tracer) timed(name string, parent int64, fn func()) time.Duration {
	id := tr.start(name, parent, 0)
	start := time.Now()
	fn()
	d := time.Since(start)
	tr.finish(id)
	return d
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover.
func (tr *tracer) selfTimes() map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range tr.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]time.Duration{}
	for _, s := range tr.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

func (tr *tracer) write(path string) error {
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerStats are the library-side per-layer measurements of a traced run.
type layerStats struct {
	metrics map[string]metric
	// ingestLib is the library's insert + publish + WAL append time per
	// batch, the baseline server.ingest_overhead_ms subtracts.
	ingestLib []time.Duration
}

// tracedRun times calls into each layer's public functions on the
// workload's own inputs, then runs HTTP rounds alternately untraced and
// traced, and reports the per-layer metrics. Spans go to
// .bench_build/traces/<workload>-<seed>.json.
func (b *bench) tracedRun(budget time.Duration, tracePath string) (result, error) {
	b.tr = newTracer()
	root := b.tr.start("layers", 0, 0)
	ls, err := b.layers(root)
	b.tr.finish(root)
	if err != nil {
		return result{}, err
	}
	plain, traced := &runStats{}, &runStats{}
	if err := b.measure(budget, plain, traced); err != nil {
		return result{}, err
	}
	tt := traced.merged()
	m := ls.metrics
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	put("server.count_overhead_us", percentile(tt.countOverhead, 0.5), "us")
	put("server.encode_ns_per_row", float64(tt.encodeTime.Nanoseconds())/float64(max(tt.encodeRows, 1)), "ns")
	put("server.plan_hit_ratio", float64(tt.planHits)/float64(max(tt.planAnswers, 1)), "ratio")
	var over []float64
	for i, lats := range tt.ingestByBatch {
		for _, l := range lats {
			over = append(over, l-ms(ls.ingestLib[i]))
		}
	}
	put("server.ingest_overhead_ms", percentile(over, 0.5), "ms")
	put("loadgen.late_ms_p99", percentile(append(plain.merged().late, tt.late...), 0.99), "ms")

	b.report(plain, traced)
	printPredictions(m)
	if err := b.tr.write(tracePath); err != nil {
		return result{}, err
	}
	logf("wrote %d spans to %s", len(b.tr.spans), tracePath)
	res := plain.result(m)
	res.Attempted += tt.attempted
	res.Failed += tt.failed
	res.Correct = res.Correct && tt.failed == 0
	return res, nil
}

// prediction says which end-to-end metrics a per-layer metric should move
// when its layer changes, and which it should leave alone.
type prediction struct {
	layer, moves, steady string
}

// predictions is the layer -> end-to-end table a change to one layer is
// judged against; workloads in parentheses.
var predictions = []prediction{
	{"hgio.load_ms", "setup_s (enumerate)", "setup_s (lookup)"},
	{"hgio.map_ms", "setup_s (lookup)", "setup_s (enumerate)"},
	{"hgio.wal_append_us", "ingest_p50_ms of a -wal-dir deployment; no workload journals", "every end-to-end metric here"},
	{"hypergraph.insert_us_per_record", "ingest_records_per_s", "count_emb_per_s, lookup_p50_ms"},
	{"hypergraph.publish_ms_p50", "ingest_p50_ms, ingest_records_per_s", "count_emb_per_s, lookup_p50_ms"},
	{"hypergraph.publish_ms_max", "ingest_p50_ms, ingest_records_per_s", "count_emb_per_s, lookup_p50_ms"},
	{"hypergraph.compact_ms", "ingest_records_per_s once a batch sequence reaches the compaction threshold (writers wait on the ingest lock)", "count_emb_per_s, lookup_p50_ms"},
	{"core.compile_us", "lookup_p50_ms, lookup_qps, ingest_read_p50_ms", "count_emb_per_s (enumerate)"},
	{"core.kernel_ns_per_emb", "count_emb_per_s, match_rows_per_s (enumerate)", "ingest_records_per_s"},
	{"core.lookup_run_us", "lookup_p50_ms, lookup_qps", "ingest_records_per_s"},
	{"core.valid_per_candidate", "lookup_p50_ms (a rise means filtering improved)", "-"},
	{"engine.speedup", "count_emb_per_s (enumerate)", "lookup_p50_ms"},
	{"engine.busy_ratio", "count_emb_per_s (enumerate)", "lookup_p50_ms"},
	{"engine.steals_per_run", "count_emb_per_s (enumerate)", "lookup_p50_ms"},
	{"engine.submit_us", "lookup_p50_ms", "count_emb_per_s (enumerate)"},
	{"server.count_overhead_us", "lookup_p50_ms, lookup_qps", "count_emb_per_s (enumerate; a small share)"},
	{"server.encode_ns_per_row", "match_rows_per_s, match_ttfr_p50_ms", "count_emb_per_s, lookup_p50_ms"},
	{"server.plan_hit_ratio", "lookup_p50_ms, ingest_read_p50_ms", "count_emb_per_s (enumerate)"},
	{"server.ingest_overhead_ms", "ingest_p50_ms", "count_emb_per_s, lookup_p50_ms"},
	{"loadgen.late_ms_p99", "none: the generator's own lateness, a validity check on lookup_p50_ms", "all"},
}

// printPredictions prints every per-layer value beside the end-to-end
// metrics it should and should not move.
func printPredictions(m map[string]metric) {
	fmt.Println("# per-layer metric -> should move | should not move")
	for _, p := range predictions {
		fmt.Printf("#   %-32s %12.4g %-5s -> %s | %s\n", p.layer, m[p.layer].Value, m[p.layer].Unit, p.moves, p.steady)
	}
}

// report prints the layer self-times, the tail diagnostics with their
// sample counts, and the tracing overhead (traced minus untraced rounds).
func (b *bench) report(plain, traced *runStats) {
	self := b.tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("# span self-times")
	for _, n := range names {
		fmt.Printf("#   %-28s %12.3f ms\n", n, ms(self[n]))
	}
	pt := plain.merged()
	fmt.Println("# tails (untraced rounds): p90 / p99 with sample counts")
	for _, d := range []struct {
		name string
		xs   []float64
	}{
		{"lookup_ms (open loop)", pt.lookupLat},
		{"match_ttfr_ms", pt.ttfr},
		{"ingest_ms", pt.ingestLat},
		{"ingest_read_ms", pt.readLat},
	} {
		fmt.Printf("#   %-24s p90 %9.3f  p99 %9.3f  n=%d\n", d.name, percentile(d.xs, 0.9), percentile(d.xs, 0.99), len(d.xs))
	}
	fmt.Println("# tracing overhead: traced vs untraced rounds")
	pm, tm := plain.endToEnd(), traced.endToEnd()
	keys := make([]string, 0, len(pm))
	for k := range pm {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		u, t := pm[k].Value, tm[k].Value
		pct := 0.0
		if u != 0 {
			pct = 100 * (t - u) / u
		}
		fmt.Printf("#   %-24s untraced %12.4f  traced %12.4f  %+6.1f%%\n", k, u, t, pct)
	}
}

// layers measures hgio, hypergraph, core and engine from their public
// functions on the workload's inputs.
func (b *bench) layers(root int64) (layerStats, error) {
	in, tr := b.in, b.tr
	ls := layerStats{metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { ls.metrics[name] = metric{v, unit} }

	// hgio: heap load and mmap attach of the workload's graph, each written
	// in the other format too so every workload reports both.
	heapPath, mapPath := filepath.Join(b.dir, "layer.hgb"), filepath.Join(b.dir, "layer.hgb3")
	if err := hgio.WriteBinaryFile(heapPath, in.data); err != nil {
		return ls, err
	}
	if err := hgio.WriteBinaryV3File(mapPath, in.data); err != nil {
		return ls, err
	}
	var loads, maps []float64
	for i := 0; i < 3; i++ {
		var err error
		loads = append(loads, ms(tr.timed("hgio.ReadAutoFile", root, func() { _, err = hgio.ReadAutoFile(heapPath) })))
		if err != nil {
			return ls, err
		}
		var mg *hgio.MappedGraph
		maps = append(maps, ms(tr.timed("hgio.MapFile", root, func() { mg, err = hgio.MapFile(mapPath, hgio.MapOptions{}) })))
		if err != nil {
			return ls, err
		}
		mg.Release()
	}
	put("hgio.load_ms", percentile(loads, 0.5), "ms")
	put("hgio.map_ms", percentile(maps, 0.5), "ms")

	// hypergraph + hgio WAL: replay the ingest sequence, publishing after
	// each batch and compacting where the server would.
	if err := b.ingestLayers(root, &ls); err != nil {
		return ls, err
	}

	// core: compile and single-worker runs.
	var compiles, lookupRuns []float64
	var ct core.Counters
	for i := range in.lookup {
		q := in.lookup[i].plan
		var p *core.Plan
		var err error
		compiles = append(compiles, float64(tr.timed("core.NewPlan", root, func() { p, err = core.NewPlan(q.Query, in.data) }).Nanoseconds())/1e3)
		if err != nil {
			return ls, err
		}
		var res engine.Result
		lookupRuns = append(lookupRuns, float64(tr.timed("engine.Run/w1", root, func() { res = engine.Run(p, engine.Options{Workers: 1}) }).Nanoseconds())/1e3)
		ct.Add(expandCounters(p, res))
	}
	put("core.compile_us", percentile(compiles, 0.5), "us")
	put("core.lookup_run_us", percentile(lookupRuns, 0.5), "us")

	nproc := runtime.GOMAXPROCS(0)
	var emb uint64
	var t1, tn, busy, capacity time.Duration
	var steals uint64
	for i := range in.enum {
		p := in.enum[i].plan
		var r1, rn engine.Result
		t1 += tr.timed("engine.Run/w1", root, func() { r1 = engine.Run(p, engine.Options{Workers: 1}) })
		tn += tr.timed("engine.Run/wN", root, func() { rn = engine.Run(p, engine.Options{Workers: nproc}) })
		if r1.Embeddings != in.enum[i].count || rn.Embeddings != in.enum[i].count {
			return ls, fmt.Errorf("library run of enumerate query %d disagrees with its own count", i)
		}
		emb += r1.Embeddings
		ct.Add(expandCounters(p, r1))
		for _, w := range rn.Workers {
			busy += w.BusyTime
		}
		capacity += time.Duration(len(rn.Workers)) * rn.Elapsed
		steals += rn.TotalSteals()
	}
	put("core.kernel_ns_per_emb", float64(t1.Nanoseconds())/float64(max(emb, 1)), "ns")
	put("core.valid_per_candidate", float64(ct.Valid)/float64(max(ct.Candidates, 1)), "ratio")
	put("engine.speedup", float64(t1)/float64(max(tn, 1)), "ratio")
	put("engine.busy_ratio", float64(busy)/float64(max(capacity, 1)), "ratio")
	put("engine.steals_per_run", float64(steals)/float64(len(in.enum)), "count")

	// engine: what the shared pool adds over a solo run of the same plan.
	pool := engine.NewPool(nproc)
	defer pool.Close()
	var submit []float64
	for i := range in.lookup {
		p := in.lookup[i].plan
		ds := tr.timed("engine.Pool.Submit", root, func() { pool.Submit(p, engine.Options{}) })
		dr := tr.timed("engine.Run/wN", root, func() { engine.Run(p, engine.Options{Workers: nproc}) })
		submit = append(submit, float64((ds-dr).Nanoseconds())/1e3)
	}
	put("engine.submit_us", percentile(submit, 0.5), "us")
	return ls, nil
}

// expandCounters returns a run's counters for its EXPAND steps only: the
// engine also counts every SCAN seed as valid, with no candidate behind
// it, which would push valid/candidates past 1 on shallow queries.
func expandCounters(p *core.Plan, r engine.Result) core.Counters {
	c := r.Counters
	if p.Empty {
		return c
	}
	c.Valid -= uint64(len(p.InitialCandidates()))
	return c
}

// ingestLayers replays the batch sequence through a library DeltaBuffer
// and a WAL in a scratch directory, timing each layer's share.
func (b *bench) ingestLayers(root int64, ls *layerStats) error {
	in, tr := b.in, b.tr
	put := func(name string, v float64, unit string) { ls.metrics[name] = metric{v, unit} }
	walDir := filepath.Join(b.dir, "layer-wal")
	defer os.RemoveAll(walDir)
	wal, _, err := hgio.OpenWAL(walDir, hgio.WALOptions{}, func(*hgio.WALBatch) error { return nil })
	if err != nil {
		return err
	}
	defer wal.Close()
	d, err := hypergraph.NewDeltaBuffer(in.data)
	if err != nil {
		return err
	}
	var appends, publishes, compacts []float64
	var insert time.Duration
	records := 0
	for i := range in.batches {
		bt := &in.batches[i]
		var got ingestCounts
		di := tr.timed("hypergraph.DeltaBuffer.Insert", root, func() { got, err = replayBatch(d, bt.recs) })
		if err != nil {
			return err
		}
		if got != bt.want {
			return fmt.Errorf("library replay of batch %d changed: %+v vs %+v", i, got, bt.want)
		}
		insert += di
		records += len(bt.recs)
		da := tr.timed("hgio.WAL.Append", root, func() { err = wal.Append(&hgio.WALBatch{Records: bt.recs}) })
		if err != nil {
			return err
		}
		dp := tr.timed("hypergraph.DeltaBuffer.Publish", root, func() { d.Publish() })
		appends = append(appends, float64(da.Nanoseconds())/1e3)
		publishes = append(publishes, ms(dp))
		ls.ingestLib = append(ls.ingestLib, di+da+dp)
		if d.PendingEdges()+d.TombstonedEdges() >= compactThreshold {
			compacts = append(compacts, ms(tr.timed("hypergraph.DeltaBuffer.Compact", root, func() { _, err = d.Compact() })))
			if err != nil {
				return err
			}
		}
	}
	if len(compacts) == 0 {
		// The sequence never reaches the threshold: fold the final delta
		// once so every workload reports a compaction time.
		compacts = append(compacts, ms(tr.timed("hypergraph.DeltaBuffer.Compact", root, func() { _, err = d.Compact() })))
		if err != nil {
			return err
		}
	}
	put("hgio.wal_append_us", percentile(appends, 0.5), "us")
	put("hypergraph.insert_us_per_record", float64(insert.Nanoseconds())/1e3/float64(max(records, 1)), "us")
	put("hypergraph.publish_ms_p50", percentile(publishes, 0.5), "ms")
	put("hypergraph.publish_ms_max", percentile(publishes, 1), "ms")
	put("hypergraph.compact_ms", percentile(compacts, 0.5), "ms")
	return nil
}

// compactThreshold is hgserve's default -compact-threshold.
const compactThreshold = 10000
