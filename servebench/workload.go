package main

// workload fixes one benchmark workload: the data hypergraph, how hgserve
// serves it, and the operation counts of every phase of a round. Every
// phase is bounded by an operation count, never by time, so each round
// does the same work; only the number of rounds depends on the budget.
//
// Every workload runs every phase so that each run reports every
// end-to-end metric, but the phases are sized so that a different layer
// dominates each workload (see the why fields in BENCHMARK.json).
type workload struct {
	name    string
	profile string  // datagen profile
	scale   float64 // datagen scale factor
	mmap    bool    // write HGB3 and serve it with -mmap

	// enum is the /count + /match query set, sent enumPasses times per
	// round.
	enum       querySpec
	enumPasses int
	// lookup is the distinct selective query set; phase A sends lookupA
	// requests from 2 closed-loop clients, phase B sends lookupB requests
	// open loop at rateB per second. Both draw from one Zipf stream.
	lookup  querySpec
	lookupA int
	lookupB int
	rateB   float64
	// batches is the number of 100-record ingest batches (90 inserts, 10
	// deletes of earlier inserts) the writer posts per round; the reader
	// sends one hot-set /count per batch, cycling over hot queries.
	batches int
	hot     int
}

// querySpec selects queries: sampled with querygen cycling over settings,
// kept when their library count lies in [min, max] and their canonical key
// is new, until n are kept.
type querySpec struct {
	settings []string
	n        int
	min, max uint64
}

var workloads = []workload{
	{
		name: "enumerate", profile: "SB", scale: 0.4,
		enum:       querySpec{settings: []string{"q3"}, n: 128, min: 1000, max: 10000},
		enumPasses: 1,
		lookup:     querySpec{settings: []string{"q3", "q4"}, n: 256, min: 1, max: 50},
		lookupA:    1000, lookupB: 600, rateB: 300,
		batches: 60, hot: 16,
	},
	{
		name: "lookup", profile: "TC", scale: 1.0, mmap: true,
		enum:       querySpec{settings: []string{"q2"}, n: 128, min: 2, max: 4},
		enumPasses: 16,
		lookup:     querySpec{settings: []string{"q2", "q3", "q4"}, n: 1024, min: 1, max: 10},
		lookupA:    6000, lookupB: 3000, rateB: 1000,
		batches: 80, hot: 16,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
