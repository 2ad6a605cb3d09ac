package main

import (
	"context"
	"net/http/httptest"
	"testing"

	"hgmatch/internal/hgio"
	"hgmatch/internal/hypergraph"
	hgserver "hgmatch/internal/server"
)

// tiny is a small workload: every phase's inputs, built in well under a
// second.
var tiny = workload{
	name: "tiny", profile: "SB", scale: 0.05,
	enum:    querySpec{settings: []string{"q3"}, n: 4, min: 10, max: 5000},
	lookup:  querySpec{settings: []string{"q2", "q3"}, n: 8, min: 1, max: 500},
	lookupA: 16, lookupB: 16, batches: 3, hot: 2,
}

// startInProcess serves the inputs' data file from an in-process hgserve
// handler and returns a client for it.
func startInProcess(t *testing.T, in *inputs) *server {
	t.Helper()
	reg := hgserver.NewRegistry()
	if err := reg.LoadFile(graphName, in.dataPath); err != nil {
		t.Fatal(err)
	}
	srv := hgserver.New(reg, hgserver.Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return &server{base: ts.URL, client: ts.Client()}
}

func tinyInputs(t *testing.T) *inputs {
	t.Helper()
	in, err := generate(tiny, 7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestOracleAcceptsServer checks that real answers pass the oracle, and
// that corrupting each kind of answer makes it fail.
func TestOracleAcceptsServer(t *testing.T) {
	in := tinyInputs(t)
	s := startInProcess(t, in)

	for i := range in.enum {
		q := &in.enum[i]
		sum, _, err := s.count(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkCount(q.count, sum); err != nil {
			t.Fatalf("enum query %d /count: %v", i, err)
		}
		bad := sum
		bad.Embeddings++
		if checkCount(q.count, bad) == nil {
			t.Errorf("enum query %d: corrupted count %d accepted", i, bad.Embeddings)
		}

		mr, err := s.match(context.Background(), q, sum.Order)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkRows(q, mr.rows, mr.summary); err != nil {
			t.Fatalf("enum query %d /match: %v", i, err)
		}
	}

	for i := range in.batches {
		bt := &in.batches[i]
		sum, _, err := s.ingest(bt)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkIngest(bt.want, sum); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		for _, corrupt := range []func(*hgio.IngestSummary){
			func(s *hgio.IngestSummary) { s.Inserted-- },
			func(s *hgio.IngestSummary) { s.Duplicates++ },
			func(s *hgio.IngestSummary) { s.Deleted-- },
			func(s *hgio.IngestSummary) { s.Missing++ },
			func(s *hgio.IngestSummary) { s.Done = false },
		} {
			bad := sum
			corrupt(&bad)
			if checkIngest(bt.want, bad) == nil {
				t.Errorf("batch %d: corrupted summary %+v accepted", i, bad)
			}
		}
	}
	var info hgio.GraphInfo
	if err := s.get("/graphs/"+graphName+"/stats", &info); err != nil {
		t.Fatal(err)
	}
	if info.NumEdges != in.finalEdges {
		t.Fatalf("%d edges after ingest, library says %d", info.NumEdges, in.finalEdges)
	}
	for _, i := range in.hot {
		sum, _, err := s.count(&in.lookup[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := checkCount(in.lookup[i].count, sum); err != nil {
			t.Fatalf("hot query %d after ingest: %v", i, err)
		}
	}
}

// TestOracleRejectsCorruptRows feeds the row checksum the library's own
// rows, in another order, and then with one row changed, dropped or
// repeated.
func TestOracleRejectsCorruptRows(t *testing.T) {
	in := tinyInputs(t)
	q := &in.enum[0]
	var rows [][]uint32
	q.plan.EnumerateSequential(func(m []hypergraph.EdgeID) { rows = append(rows, append([]uint32(nil), m...)) })
	if len(rows) < 2 {
		t.Fatalf("need at least 2 rows, have %d", len(rows))
	}
	summary := hgio.MatchSummary{Done: true, Embeddings: q.count}
	sumOf := func(rs [][]uint32) *rowSum {
		s := newRowSum(q.plan.Order)
		for _, r := range rs {
			s.add(r)
		}
		return s
	}
	reversed := make([][]uint32, len(rows))
	for i, r := range rows {
		reversed[len(rows)-1-i] = r
	}
	if err := checkRows(q, sumOf(reversed), summary); err != nil {
		t.Fatalf("reordered rows rejected: %v", err)
	}

	changed := append([][]uint32(nil), rows...)
	changed[0] = append([]uint32(nil), rows[0]...)
	changed[0][0]++
	dropped := rows[1:]
	repeated := append(append([][]uint32(nil), rows[1:]...), rows[1])
	for name, rs := range map[string][][]uint32{"changed": changed, "dropped": dropped, "repeated": repeated} {
		if checkRows(q, sumOf(rs), summary) == nil {
			t.Errorf("%s row accepted", name)
		}
	}
	short := summary
	short.Embeddings--
	if checkRows(q, sumOf(rows), short) == nil {
		t.Error("summary with a wrong count accepted")
	}
	trailer := summary
	trailer.Error, trailer.ErrorCode = "budget exceeded", "budget_exceeded"
	if checkRows(q, sumOf(rows), trailer) == nil {
		t.Error("stream ending in an error trailer accepted")
	}
}

func TestParseRow(t *testing.T) {
	row, ok := parseRow([]byte(`{"embedding":[0,17,4096]}`+"\n"), nil)
	if !ok || len(row) != 3 || row[0] != 0 || row[1] != 17 || row[2] != 4096 {
		t.Fatalf("parseRow = %v, %v", row, ok)
	}
	for _, line := range []string{`{"done":true,"embeddings":3}`, `{"embedding":[1,,2]}`, `{"embedding":[]}`, `{"embedding":[1,2`} {
		if _, ok := parseRow([]byte(line), nil); ok {
			t.Errorf("parseRow accepted %q", line)
		}
	}
}
