package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"

	"hgmatch/internal/core"
	"hgmatch/internal/datagen"
	"hgmatch/internal/engine"
	"hgmatch/internal/hgio"
	"hgmatch/internal/hypergraph"
	"hgmatch/internal/querygen"
)

// graphName is the name every workload registers its data graph under.
const graphName = "data"

// Per-batch ingest shape.
const (
	batchInserts = 90
	batchDeletes = 10
)

// inputs is everything one run sends, plus the library's answers.
type inputs struct {
	dataPath string                 // the file hgserve loads
	data     *hypergraph.Hypergraph // the library's copy, read back from dataPath
	enum     []query
	lookup   []query
	stream   []int // Zipf-skewed draw of lookup indexes: phase A, then phase B
	hot      []int // lookup indexes the ingest reader cycles over
	batches  []batch
	// finalEdges is the live edge count after the whole batch sequence.
	finalEdges int
}

// query is one request body and its oracle.
type query struct {
	body  []byte // JSON MatchRequest, sent to /count and /match
	plan  *core.Plan
	count uint64
	sum   uint64 // order-independent checksum of the rows (enum queries only)
}

// batch is one ingest request body and the per-batch summary the library
// produced for the same records.
type batch struct {
	body []byte
	recs []hgio.IngestRecord
	want ingestCounts
}

func (in *inputs) enumEmbeddings() uint64 {
	var n uint64
	for _, q := range in.enum {
		n += q.count
	}
	return n
}

// datasetSeed fixes every workload's data hypergraph, query sets and
// query popularity ranking. Per-embedding and per-request costs differ by
// tens of percent from one sampled query set to the next, so a
// seed-dependent query set would make runs on different seeds measure
// different work; with these fixed, the run seed drives only the order
// of traffic (the Zipf draws and the enumerate pass order) and the ingest
// record sequence.
const datasetSeed = 1

// generate builds a workload's inputs, writes the data file hgserve will
// load, and computes every expected answer with the library. The same
// seed always gives the same inputs.
func generate(w workload, seed int64, dir string) (*inputs, error) {
	p, ok := datagen.ProfileByName(w.profile)
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", w.profile)
	}
	h := datagen.Generate(p.Scaled(w.scale), datasetSeed)
	in := &inputs{}
	var err error
	if w.mmap {
		in.dataPath = filepath.Join(dir, "data.hgb3")
		err = hgio.WriteBinaryV3File(in.dataPath, h)
	} else {
		in.dataPath = filepath.Join(dir, "data.hgb")
		err = hgio.WriteBinaryFile(in.dataPath, h)
	}
	if err != nil {
		return nil, err
	}
	// Oracle answers come from the file the server reads, so edge IDs and
	// label IDs agree with the server's by construction.
	if in.data, err = hgio.ReadAutoFile(in.dataPath); err != nil {
		return nil, err
	}
	qrng := rand.New(rand.NewSource(datasetSeed))
	seen := map[string]bool{}
	if in.enum, err = sampleQueries(qrng, in.data, w.enum, seen, true); err != nil {
		return nil, fmt.Errorf("enumerate queries: %w", err)
	}
	if in.lookup, err = sampleQueries(qrng, in.data, w.lookup, seen, false); err != nil {
		return nil, fmt.Errorf("lookup queries: %w", err)
	}
	for i := 0; i < w.hot && i < len(in.lookup); i++ {
		in.hot = append(in.hot, i) // Zipf ranks 0.. are the most popular
	}

	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(in.enum), func(i, j int) { in.enum[i], in.enum[j] = in.enum[j], in.enum[i] })
	zipf := rand.NewZipf(rng, 1.1, 8, uint64(len(in.lookup)-1))
	in.stream = make([]int, w.lookupA+w.lookupB)
	for i := range in.stream {
		in.stream[i] = int(zipf.Uint64())
	}
	if err := in.makeBatches(rng, w.batches); err != nil {
		return nil, err
	}
	return in, nil
}

// sampleQueries draws queries until spec.n are kept; withRows also
// computes the row checksum for /match verification.
func sampleQueries(rng *rand.Rand, data *hypergraph.Hypergraph, spec querySpec, seen map[string]bool, withRows bool) ([]query, error) {
	var out []query
	for attempt := 0; len(out) < spec.n; attempt++ {
		if attempt >= 50*spec.n+200 {
			return nil, fmt.Errorf("kept only %d of %d queries in [%d, %d] embeddings", len(out), spec.n, spec.min, spec.max)
		}
		s, _ := querygen.SettingByName(spec.settings[attempt%len(spec.settings)])
		q := querygen.Sample(rng, data, s)
		if q == nil {
			continue
		}
		var text strings.Builder
		if err := hgio.Write(&text, q); err != nil {
			return nil, err
		}
		plan, err := compileText(text.String(), data)
		if err != nil {
			return nil, err
		}
		key := hypergraph.CanonicalKey(plan.Query)
		if seen[key] {
			continue
		}
		// The limit stops a run as soon as it overshoots the band.
		n := engine.Run(plan, engine.Options{Workers: 1, Limit: spec.max + 1}).Embeddings
		if n < spec.min || n > spec.max {
			continue
		}
		seen[key] = true
		body, err := json.Marshal(hgio.MatchRequest{Graph: graphName, Query: text.String()})
		if err != nil {
			return nil, err
		}
		qu := query{body: body, plan: plan, count: n}
		if withRows {
			qu.sum = librarySum(plan)
		}
		out = append(out, qu)
	}
	return out, nil
}

// compileText parses and aligns a query exactly as the server does, then
// compiles it against data.
func compileText(text string, data *hypergraph.Hypergraph) (*core.Plan, error) {
	q, err := hgio.Read(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	if q, err = hgio.AlignLabels(q, data); err != nil {
		return nil, err
	}
	return core.NewPlan(q, data)
}

// makeBatches generates the ingest sequence and replays it through a
// library DeltaBuffer for the expected per-batch summaries. Inserted
// edges never carry the label signature of a hot query's hyperedge, and
// deletes only remove earlier inserts, so the hot queries' counts are the
// same at every version the reader can see.
func (in *inputs) makeBatches(rng *rand.Rand, n int) error {
	avoid := map[string]bool{}
	for _, i := range in.hot {
		q := in.lookup[i].plan.Query
		for e := 0; e < q.NumEdges(); e++ {
			avoid[signature(q, q.Edge(hypergraph.EdgeID(e)))] = true
		}
	}
	d, err := hypergraph.NewDeltaBuffer(in.data)
	if err != nil {
		return err
	}
	nv := in.data.NumVertices()
	var alive [][]uint32 // inserted and not yet deleted
	made := map[string]bool{}
	in.finalEdges = in.data.NumLiveEdges()
	for b := 0; b < n; b++ {
		var bt batch
		for i := 0; i < batchInserts; i++ {
			vs := randomEdge(rng, in.data, nv, avoid, made)
			bt.recs = append(bt.recs, hgio.IngestRecord{Op: "insert", Vertices: vs})
			alive = append(alive, vs)
		}
		for i := 0; i < batchDeletes; i++ {
			j := rng.Intn(len(alive))
			bt.recs = append(bt.recs, hgio.IngestRecord{Op: "delete", Vertices: alive[j]})
			alive[j] = alive[len(alive)-1]
			alive = alive[:len(alive)-1]
		}
		var body bytes.Buffer
		enc := json.NewEncoder(&body)
		for _, r := range bt.recs {
			if err := enc.Encode(r); err != nil {
				return err
			}
		}
		bt.body = body.Bytes()
		if bt.want, err = replayBatch(d, bt.recs); err != nil {
			return err
		}
		in.finalEdges += bt.want.Inserted - bt.want.Deleted
		in.batches = append(in.batches, bt)
	}
	return nil
}

// randomEdge draws a new sorted vertex set whose arity is that of a random
// data hyperedge and whose signature is not in avoid.
func randomEdge(rng *rand.Rand, data *hypergraph.Hypergraph, nv int, avoid, made map[string]bool) []uint32 {
	for {
		k := len(data.Edge(hypergraph.EdgeID(rng.Intn(data.NumEdges()))))
		if k < 2 {
			k = 2
		}
		if k > nv {
			k = nv
		}
		set := map[uint32]bool{}
		for len(set) < k {
			set[uint32(rng.Intn(nv))] = true
		}
		vs := make([]uint32, 0, k)
		for v := range set {
			vs = append(vs, v)
		}
		slices.Sort(vs)
		key := fmt.Sprint(vs)
		if made[key] || avoid[signature(data, vs)] {
			continue
		}
		made[key] = true
		return vs
	}
}

// signature is the sorted label multiset of a vertex set: two hyperedges
// can match each other only if their signatures are equal.
func signature(h *hypergraph.Hypergraph, vs []uint32) string {
	ls := make([]hypergraph.Label, len(vs))
	for i, v := range vs {
		ls[i] = h.Label(v)
	}
	slices.Sort(ls)
	return fmt.Sprint(ls)
}
