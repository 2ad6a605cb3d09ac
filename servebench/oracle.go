package main

import (
	"fmt"

	"hgmatch/internal/core"
	"hgmatch/internal/hgio"
	"hgmatch/internal/hypergraph"
)

// ingestCounts are the IngestSummary fields the oracle compares.
type ingestCounts struct {
	Inserted, Duplicates, Deleted, Missing int
}

func countsOf(s hgio.IngestSummary) ingestCounts {
	return ingestCounts{s.Inserted, s.Duplicates, s.Deleted, s.Missing}
}

// replayBatch applies records to a library DeltaBuffer, counting what
// each did the way the server's ingest summary does.
func replayBatch(d *hypergraph.DeltaBuffer, recs []hgio.IngestRecord) (ingestCounts, error) {
	var c ingestCounts
	for _, r := range recs {
		switch r.Op {
		case "insert":
			_, added, err := d.Insert(r.Vertices...)
			if err != nil {
				return c, err
			}
			if added {
				c.Inserted++
			} else {
				c.Duplicates++
			}
		case "delete":
			ok, err := d.Delete(r.Vertices...)
			if err != nil {
				return c, err
			}
			if ok {
				c.Deleted++
			} else {
				c.Missing++
			}
		default:
			return c, fmt.Errorf("unexpected op %q", r.Op)
		}
	}
	return c, nil
}

// checkIngest compares a server ingest summary with the library's counts.
func checkIngest(want ingestCounts, got hgio.IngestSummary) error {
	if !got.Done || got.Error != "" {
		return fmt.Errorf("ingest not done: %q", got.Error)
	}
	if c := countsOf(got); c != want {
		return fmt.Errorf("ingest summary %+v, library says %+v", c, want)
	}
	return nil
}

// checkCount compares a /count or /match summary with the library count.
func checkCount(want uint64, got hgio.MatchSummary) error {
	if !got.Done || got.TimedOut || got.Error != "" {
		return fmt.Errorf("run incomplete: done=%v timed_out=%v error=%q", got.Done, got.TimedOut, got.Error)
	}
	if got.Embeddings != want {
		return fmt.Errorf("%d embeddings, library says %d", got.Embeddings, want)
	}
	return nil
}

// rowSum is the order-independent checksum of a set of embeddings: the
// wrapping sum of one hash per row, each row first rearranged into query
// hyperedge order so the server's and the library's matching orders need
// not agree.
type rowSum struct {
	order []hypergraph.EdgeID // matching order position -> query hyperedge
	canon []uint32
	rows  uint64
	sum   uint64
}

func newRowSum(order []hypergraph.EdgeID) *rowSum {
	return &rowSum{order: order, canon: make([]uint32, len(order))}
}

// add folds one row given in matching order. It reports false when the
// row's width does not match the order.
func (r *rowSum) add(m []uint32) bool {
	if len(m) != len(r.order) {
		return false
	}
	for k, e := range m {
		r.canon[r.order[k]] = e
	}
	h := uint64(len(m))
	for _, e := range r.canon {
		h = mix64(h ^ uint64(e))
	}
	r.sum += h
	r.rows++
	return true
}

// mix64 is the splitmix64 finaliser.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// librarySum enumerates a plan sequentially and checksums its rows.
func librarySum(p *core.Plan) uint64 {
	rs := newRowSum(p.Order)
	p.EnumerateSequential(func(m []hypergraph.EdgeID) { rs.add(m) })
	return rs.sum
}

// checkRows compares a /match stream with the library: the summary must
// agree with the count, and the streamed rows with the count and the
// library's row checksum.
func checkRows(q *query, rs *rowSum, summary hgio.MatchSummary) error {
	if err := checkCount(q.count, summary); err != nil {
		return err
	}
	if rs.rows != q.count {
		return fmt.Errorf("%d rows streamed, library says %d", rs.rows, q.count)
	}
	if rs.sum != q.sum {
		return fmt.Errorf("row checksum %#x, library says %#x", rs.sum, q.sum)
	}
	return nil
}
