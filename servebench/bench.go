package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hgmatch/internal/hgio"
)

// setupStarts is the number of extra set-up-only starts per run, on top of
// one per round, so setup_s is a median of several samples.
const setupStarts = 5

// lateFraction marks a run incorrect when the open-loop generator's
// median lateness exceeds this share of lookup_p50_ms: the schedule, not
// the server, would then be setting the reported median. Latency already
// runs from each request's due time, so lateness in the tail is charged
// to the requests it delays; the p99 is reported as loadgen.late_ms_p99.
const lateFraction = 0.5

// bench runs rounds of one workload against fresh hgserve processes.
type bench struct {
	w   workload
	in  *inputs
	bin string
	dir string
	tr  *tracer // nil: untraced
}

// tally accumulates one round's operations and samples. Its methods are
// safe for concurrent use by the phase goroutines.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int

	rss float64 // MB, the server's VmHWM at the end of the round

	// countLat and matchLat hold each enumerate query's /count and /match
	// times, one per pass.
	countLat, matchLat [][]time.Duration
	ttfr               []float64 // ms

	lookupN    int
	lookupWall time.Duration
	lookupLat  []float64 // ms, from each request's due time
	late       []float64 // ms, generator lateness per open-loop send

	ingestRecs int
	ingestWall time.Duration
	ingestLat  []float64 // ms
	readLat    []float64 // ms

	// Server-layer diagnostics for the traced run.
	planHits, planAnswers int
	countOverhead         []float64 // us: client /count latency minus elapsed_us
	encodeTime            time.Duration
	encodeRows            uint64
	ingestByBatch         map[int][]float64 // batch index -> client latencies, ms
}

// check counts one operation and reports whether it succeeded.
func (t *tally) check(what string, err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.failed <= 10 {
			logf("FAILED %s: %v", what, err)
		}
		return false
	}
	return true
}

// answered records a /count or /match summary's plan-cache flag and the
// server-side share of the client's latency.
func (t *tally) answered(sum hgio.MatchSummary, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.planAnswers++
	if sum.PlanCached {
		t.planHits++
	}
	t.countOverhead = append(t.countOverhead, float64(d.Microseconds()-sum.ElapsedUs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (b *bench) serverArgs() []string {
	var args []string
	if b.w.mmap {
		args = append(args, "-mmap")
	}
	return append(args, graphName+"="+b.in.dataPath)
}

// start execs a fresh hgserve and records its set-up time.
func (b *bench) start(rs *runStats) (*server, error) {
	s, err := startServer(b.bin, b.serverArgs(), b.dir, b.in.lookup[0].body)
	if err != nil {
		return nil, err
	}
	rs.setup = append(rs.setup, s.setup.Seconds())
	return s, nil
}

// runStats is one run: every start's set-up time and one tally per round.
type runStats struct {
	counts []uint64  // embeddings of each enumerate query
	setup  []float64 // seconds
	rounds []*tally
}

// measure runs the set-up-only starts, then whole rounds until budget is
// spent (at least one round). With b.tr set, alternate rounds are traced
// into tr; the others go to plain.
func (b *bench) measure(budget time.Duration, plain, traced *runStats) error {
	for _, rs := range []*runStats{plain, traced} {
		if rs != nil {
			for _, q := range b.in.enum {
				rs.counts = append(rs.counts, q.count)
			}
		}
	}
	for i := 0; i < setupStarts; i++ {
		s, err := b.start(plain)
		if err != nil {
			return err
		}
		s.stop()
	}
	// The library's copy of the graph and the compiled plans are not
	// needed to drive HTTP; dropping them keeps the generator's garbage
	// collections short, which is what keeps the open-loop schedule on
	// time on a 2-vCPU machine.
	b.in.data = nil
	for _, qs := range [][]query{b.in.enum, b.in.lookup} {
		for i := range qs {
			qs[i].plan = nil
		}
	}
	runtime.GC()
	debug.SetGCPercent(400)

	tr := b.tr
	defer func() { b.tr = tr }()
	// Rounds are whole: a round starts only if one more round of the
	// length of the last fits in what is left of the budget.
	start := time.Now()
	var last time.Duration
	for r := 0; r == 0 || time.Since(start)+last <= budget || (traced != nil && r < 2); r++ {
		rs := plain
		b.tr = nil
		if traced != nil && r%2 == 1 {
			rs, b.tr = traced, tr
		}
		t0 := time.Now()
		t := &tally{}
		if err := b.round(rs, t); err != nil {
			return err
		}
		rs.rounds = append(rs.rounds, t)
		last = time.Since(t0)
		rm := rs.roundMetrics(t)
		logf("round %d: %s: count %.4g/s, match %.4g/s, ttfr %.3f ms, qps %.4g, lookup p50 %.3f ms, ingest %.4g rec/s p50 %.3f ms, read p50 %.3f ms",
			r, last.Round(time.Millisecond), rm["count_emb_per_s"].Value, rm["match_rows_per_s"].Value,
			rm["match_ttfr_p50_ms"].Value, rm["lookup_qps"].Value, rm["lookup_p50_ms"].Value,
			rm["ingest_records_per_s"].Value, rm["ingest_p50_ms"].Value, rm["ingest_read_p50_ms"].Value)
	}
	return nil
}

// run is the untraced run: end-to-end metrics only.
func (b *bench) run(budget time.Duration) (result, error) {
	rs := &runStats{}
	if err := b.measure(budget, rs, nil); err != nil {
		return result{}, err
	}
	return rs.result(rs.endToEnd()), nil
}

// result wraps metrics with the run's operation counts; a failed
// operation or a late open-loop schedule makes the run incorrect.
func (rs *runStats) result(m map[string]metric) result {
	all := rs.merged()
	return result{
		Correct:   all.failed == 0 && validLateness(all.late, rs.endToEnd()["lookup_p50_ms"].Value),
		Attempted: all.attempted,
		Failed:    all.failed,
		Metrics:   m,
	}
}

// validLateness reports whether the open-loop generator kept its
// schedule closely enough for lookup_p50_ms to be the server's number.
func validLateness(late []float64, lookupP50 float64) bool {
	p50 := percentile(late, 0.5)
	logf("generator lateness: p50 %.3f p90 %.3f p99 %.3f ms (n=%d)", p50, percentile(late, 0.9), percentile(late, 0.99), len(late))
	if p50 > lateFraction*lookupP50 {
		logf("INVALID: open-loop generator median lateness %.3f ms rivals lookup_p50_ms %.3f ms", p50, lookupP50)
		return false
	}
	return true
}

// endToEnd reports each end-to-end metric as the median of its per-round
// values, setup_s as the median over every start, and ok_ratio over all
// operations of the run.
func (rs *runStats) endToEnd() map[string]metric {
	m := map[string]metric{}
	per := map[string][]float64{}
	for _, t := range rs.rounds {
		for k, v := range rs.roundMetrics(t) {
			per[k] = append(per[k], v.Value)
			m[k] = v
		}
	}
	for k, vs := range per {
		m[k] = metric{percentile(vs, 0.5), m[k].Unit}
	}
	all := rs.merged()
	m["count_emb_per_s"] = metric{enumRate(rs.counts, all.countLat), "1/s"}
	m["match_rows_per_s"] = metric{enumRate(rs.counts, all.matchLat), "1/s"}
	m["setup_s"] = metric{percentile(rs.setup, 0.5), "s"}
	m["ok_ratio"] = metric{float64(all.attempted-all.failed) / float64(max(all.attempted, 1)), "ratio"}
	return m
}

// merged pools every round's counts and samples, for run totals and
// diagnostics.
func (rs *runStats) merged() *tally {
	all := &tally{
		countLat:      make([][]time.Duration, len(rs.counts)),
		matchLat:      make([][]time.Duration, len(rs.counts)),
		ingestByBatch: map[int][]float64{},
	}
	for _, t := range rs.rounds {
		for i := range t.countLat {
			all.countLat[i] = append(all.countLat[i], t.countLat[i]...)
			all.matchLat[i] = append(all.matchLat[i], t.matchLat[i]...)
		}
		all.attempted += t.attempted
		all.failed += t.failed
		all.ttfr = append(all.ttfr, t.ttfr...)
		all.lookupLat = append(all.lookupLat, t.lookupLat...)
		all.late = append(all.late, t.late...)
		all.ingestLat = append(all.ingestLat, t.ingestLat...)
		all.readLat = append(all.readLat, t.readLat...)
		all.planHits += t.planHits
		all.planAnswers += t.planAnswers
		all.countOverhead = append(all.countOverhead, t.countOverhead...)
		all.encodeTime += t.encodeTime
		all.encodeRows += t.encodeRows
		for i, l := range t.ingestByBatch {
			all.ingestByBatch[i] = append(all.ingestByBatch[i], l...)
		}
	}
	return all
}

// enumRate is the enumerate set's embeddings (or rows) per second: its
// total embeddings over the sum of each query's median time across
// passes. Summing raw times instead would let the few requests that a
// scheduling stall lands on set the rate of hundreds of sub-millisecond
// requests.
func enumRate(counts []uint64, lat [][]time.Duration) float64 {
	var emb uint64
	var total float64
	for i, ds := range lat {
		if len(ds) == 0 {
			continue
		}
		xs := make([]float64, len(ds))
		for j, d := range ds {
			xs[j] = d.Seconds()
		}
		emb += counts[i]
		total += percentile(xs, 0.5)
	}
	if total == 0 {
		return 0
	}
	return float64(emb) / total
}

// roundMetrics derives one round's timing metrics.
func (rs *runStats) roundMetrics(t *tally) map[string]metric {
	rate := func(n float64, d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return n / d.Seconds()
	}
	return map[string]metric{
		"count_emb_per_s":      {enumRate(rs.counts, t.countLat), "1/s"},
		"match_rows_per_s":     {enumRate(rs.counts, t.matchLat), "1/s"},
		"match_ttfr_p50_ms":    {percentile(t.ttfr, 0.5), "ms"},
		"lookup_qps":           {rate(float64(t.lookupN), t.lookupWall), "1/s"},
		"lookup_p50_ms":        {percentile(t.lookupLat, 0.5), "ms"},
		"ingest_records_per_s": {rate(float64(t.ingestRecs), t.ingestWall), "1/s"},
		"ingest_p50_ms":        {percentile(t.ingestLat, 0.5), "ms"},
		"ingest_read_p50_ms":   {percentile(t.readLat, 0.5), "ms"},
		"rss_peak_mb":          {t.rss, "MB"},
	}
}

// round is one server lifetime: start, warm up, the four timed phases,
// the end-of-run checks, and stop.
func (b *bench) round(rs *runStats, t *tally) error {
	root := b.tr.start("round", 0, 0)
	defer b.tr.finish(root)
	s, err := b.start(rs)
	if err != nil {
		return err
	}
	defer s.stop()
	orders := b.warmup(s, t)
	b.enumPhase(s, t, orders, root)
	b.lookupClosed(s, t, root)
	b.lookupOpen(s, t, root)
	b.ingestPhase(s, t, root)
	b.finalChecks(s, t)
	t.rss, err = s.peakRSSMB()
	return err
}

// warmup sends every enumerate query once as /count (learning each plan's
// matching order), one /match, and a slice of the lookup stream. Nothing
// here is timed.
func (b *bench) warmup(s *server, t *tally) [][]uint32 {
	orders := make([][]uint32, len(b.in.enum))
	for i := range b.in.enum {
		q := &b.in.enum[i]
		sum, _, err := s.count(q)
		if err == nil {
			err = checkCount(q.count, sum)
		}
		if t.check("warm-up /count", err) {
			orders[i] = sum.Order
		}
	}
	if orders[0] != nil {
		q := &b.in.enum[0]
		mr, err := s.match(context.Background(), q, orders[0])
		if err == nil {
			err = checkRows(q, mr.rows, mr.summary)
		}
		t.check("warm-up /match", err)
	}
	for _, i := range b.in.stream[:min(128, len(b.in.stream))] {
		q := &b.in.lookup[i]
		sum, _, err := s.count(q)
		if err == nil {
			err = checkCount(q.count, sum)
		}
		t.check("warm-up lookup", err)
	}
	return orders
}

// enumPhase sends each enumerate query as /count, then as /match read to
// the end, enumPasses times.
func (b *bench) enumPhase(s *server, t *tally, orders [][]uint32, root int64) {
	ph := b.tr.start("phase.enumerate", root, 0)
	defer b.tr.finish(ph)
	t.countLat = make([][]time.Duration, len(b.in.enum))
	t.matchLat = make([][]time.Duration, len(b.in.enum))
	for p := 0; p < b.w.enumPasses; p++ {
		for i := range b.in.enum {
			q := &b.in.enum[i]
			if orders[i] == nil {
				t.check("/count", fmt.Errorf("no matching order from warm-up"))
				continue
			}
			sp := b.tr.start("http.count", ph, b.tr.reqID())
			sum, cd, err := s.count(q)
			b.tr.finish(sp)
			if err == nil {
				err = checkCount(q.count, sum)
			}
			if t.check("/count", err) {
				t.mu.Lock()
				t.countLat[i] = append(t.countLat[i], cd)
				t.mu.Unlock()
			}
			sp = b.tr.start("http.match", ph, b.tr.reqID())
			mr, err := s.match(context.Background(), q, orders[i])
			b.tr.finish(sp)
			if err == nil {
				err = checkRows(q, mr.rows, mr.summary)
			}
			if t.check("/match", err) {
				t.mu.Lock()
				t.matchLat[i] = append(t.matchLat[i], mr.total)
				t.ttfr = append(t.ttfr, ms(mr.ttfr))
				t.encodeTime += mr.total - cd
				t.encodeRows += mr.rows.rows
				t.mu.Unlock()
			}
		}
	}
}

// lookupClosed is phase A: maxConns closed-loop clients send the first
// lookupA requests of the Zipf stream; throughput is requests over wall
// time.
func (b *bench) lookupClosed(s *server, t *tally, root int64) {
	ph := b.tr.start("phase.lookup_closed", root, 0)
	defer b.tr.finish(ph)
	stream := b.in.stream[:b.w.lookupA]
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(stream) {
					return
				}
				b.lookupOnce(s, t, &b.in.lookup[stream[i]], ph, time.Now(), nil)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	t.mu.Lock()
	t.lookupN += len(stream)
	t.lookupWall += wall
	t.mu.Unlock()
}

// lookupOnce sends one lookup /count and checks it. With lat non-nil the
// latency, measured from due, is appended to *lat.
func (b *bench) lookupOnce(s *server, t *tally, q *query, parent int64, due time.Time, lat *[]float64) {
	sp := b.tr.start("http.count", parent, b.tr.reqID())
	sum, d, err := s.count(q)
	b.tr.finish(sp)
	done := time.Now()
	if err == nil {
		err = checkCount(q.count, sum)
	}
	if !t.check("lookup /count", err) {
		return
	}
	t.answered(sum, d)
	if lat != nil {
		t.mu.Lock()
		*lat = append(*lat, ms(done.Sub(due)))
		t.mu.Unlock()
	}
}

// lookupOpen is phase B: lookupB requests sent open loop at rateB per
// second over maxConns connections. Latency runs from each request's due
// time, so a stall charges the wait it imposes on the requests behind it.
func (b *bench) lookupOpen(s *server, t *tally, root int64) {
	ph := b.tr.start("phase.lookup_open", root, 0)
	defer b.tr.finish(ph)
	stream := b.in.stream[b.w.lookupA:]
	type job struct {
		q   *query
		due time.Time
	}
	jobs := make(chan job, len(stream)) // sized to the number of sends: the schedule never blocks
	var wg sync.WaitGroup
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				b.lookupOnce(s, t, j.q, ph, j.due, &t.lookupLat)
			}
		}()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	interval := float64(time.Second) / b.w.rateB
	late := make([]float64, 0, len(stream))
	start := time.Now()
	for i, qi := range stream {
		due := start.Add(time.Duration(float64(i) * interval))
		sleepUntil(due)
		late = append(late, ms(time.Since(due)))
		jobs <- job{&b.in.lookup[qi], due}
	}
	close(jobs)
	wg.Wait()
	t.mu.Lock()
	t.late = append(t.late, late...)
	t.mu.Unlock()
}

// sleepUntil blocks the calling thread in nanosleep(2) until t. The Go
// timer behind time.Sleep rounds sub-millisecond waits up to the
// netpoller's millisecond tick, which alone would make the open-loop
// schedule run up to a millisecond late.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// ingestPhase posts the batch sequence from one closed-loop writer while
// one reader sends a hot-set /count as each batch is sent.
func (b *bench) ingestPhase(s *server, t *tally, root int64) {
	ph := b.tr.start("phase.ingest", root, 0)
	defer b.tr.finish(ph)
	reads := make(chan int, len(b.in.batches)) // one read per batch, never blocks the writer
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range reads {
			q := &b.in.lookup[b.in.hot[i%len(b.in.hot)]]
			start := time.Now()
			b.lookupOnce(s, t, q, ph, start, &t.readLat)
		}
	}()
	start := time.Now()
	for i := range b.in.batches {
		bt := &b.in.batches[i]
		reads <- i
		sp := b.tr.start("http.ingest", ph, b.tr.reqID())
		sum, d, err := s.ingest(bt)
		b.tr.finish(sp)
		if err == nil {
			err = checkIngest(bt.want, sum)
		}
		if t.check("ingest batch "+strconv.Itoa(i), err) {
			t.mu.Lock()
			t.ingestLat = append(t.ingestLat, ms(d))
			t.ingestRecs += len(bt.recs)
			if t.ingestByBatch == nil {
				t.ingestByBatch = map[int][]float64{}
			}
			t.ingestByBatch[i] = append(t.ingestByBatch[i], ms(d))
			t.mu.Unlock()
		}
	}
	wall := time.Since(start)
	close(reads)
	wg.Wait()
	t.mu.Lock()
	t.ingestWall += wall
	t.mu.Unlock()
}

// finalChecks compares the graph's edge count and the hot queries with
// the library after the ingest sequence, and requires the containment
// ledger to be clean.
func (b *bench) finalChecks(s *server, t *tally) {
	var info hgio.GraphInfo
	err := s.get("/graphs/"+graphName+"/stats", &info)
	if err == nil && info.NumEdges != b.in.finalEdges {
		err = fmt.Errorf("%d edges after ingest, library says %d", info.NumEdges, b.in.finalEdges)
	}
	t.check("final edge count", err)
	for _, i := range b.in.hot {
		q := &b.in.lookup[i]
		sum, _, err := s.count(q)
		if err == nil {
			err = checkCount(q.count, sum)
		}
		t.check("final hot /count", err)
	}
	var st hgio.SchedulerStats
	err = s.get("/stats", &st)
	if err == nil && (st.LeakedBlocks != 0 || st.PanicsRecovered != 0) {
		err = fmt.Errorf("leaked_blocks=%d panics_recovered=%d", st.LeakedBlocks, st.PanicsRecovered)
	}
	t.check("/stats ledger", err)
}

// percentile returns the nearest-rank p-quantile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s)-1) + 0.5)
	return s[i]
}
