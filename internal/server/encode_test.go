package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"hgmatch"
	"hgmatch/internal/hgio"
)

// TestMatchRowsReencodeIdentically pins the /match row encoder on both
// serving paths: solo with one and two workers, and a two-shard registry.
// Every row line must be byte-identical to encoding/json's rendering of
// the row it decodes to, the summary line must still be encoding/json's
// MatchSummary and agree with /count, and the sorted row set must equal
// the library's own enumeration. Runs are unlimited: a capped prefix is
// not deterministic on the shared pool, a full result set is.
func TestMatchRowsReencodeIdentically(t *testing.T) {
	// K₁₂ with a 3-edge path query: 12·11·10·9 = 11,880 rows, a few
	// hundred KB, so every variant drains full 16 KB shard buffers as well
	// as the final tails.
	const n = 12
	labels := make([]uint32, n)
	var edges [][]uint32
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, []uint32{uint32(i), uint32(j)})
		}
	}
	data, err := hgmatch.FromEdges(labels, edges)
	if err != nil {
		t.Fatal(err)
	}
	query, err := hgmatch.Load(strings.NewReader(pathQueryText))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := hgmatch.Compile(query, data)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	plan.Run(hgmatch.WithWorkers(1), hgmatch.WithCallback(func(m []hgmatch.EdgeID) {
		want = append(want, fmt.Sprint(m))
	}))
	sort.Strings(want)
	if len(want) != n*(n-1)*(n-2)*(n-3) {
		t.Fatalf("library enumeration found %d rows, want %d", len(want), n*(n-1)*(n-2)*(n-3))
	}

	mk := func(shards int) *httptest.Server {
		reg := NewRegistry()
		if err := reg.SetShards(shards); err != nil {
			t.Fatal(err)
		}
		if err := reg.Add("clique", data); err != nil {
			t.Fatal(err)
		}
		s := New(reg, Config{Workers: 2, MaxWorkers: 2})
		t.Cleanup(s.Close)
		srv := httptest.NewServer(s.Handler())
		t.Cleanup(srv.Close)
		return srv
	}
	solo, sharded := mk(1), mk(2)
	for _, v := range []struct {
		name    string
		srv     *httptest.Server
		workers int
	}{
		{"solo/workers=1", solo, 1},
		{"solo/workers=2", solo, 2},
		{"shards=2", sharded, 2},
	} {
		t.Run(v.name, func(t *testing.T) {
			req := hgio.MatchRequest{Graph: "clique", Query: pathQueryText, Workers: v.workers}
			resp, err := http.Post(v.srv.URL+"/match", "application/json", matchBody(t, req))
			if err != nil {
				t.Fatal(err)
			}
			var body bytes.Buffer
			body.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/match status %d: %s", resp.StatusCode, body.Bytes())
			}
			lines := bytes.SplitAfter(body.Bytes(), []byte("\n"))
			if last := lines[len(lines)-1]; len(last) != 0 {
				t.Fatalf("body does not end in a newline: %q", last)
			}
			lines = lines[:len(lines)-1]

			var got []string
			for _, line := range lines[:len(lines)-1] {
				var rec hgio.EmbeddingRecord
				if err := json.Unmarshal(line, &rec); err != nil {
					t.Fatalf("bad row line %q: %v", line, err)
				}
				var re bytes.Buffer
				json.NewEncoder(&re).Encode(rec)
				if !bytes.Equal(line, re.Bytes()) {
					t.Fatalf("row line %q, encoding/json writes %q", line, re.Bytes())
				}
				got = append(got, fmt.Sprint(rec.Embedding))
			}
			sort.Strings(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%d rows differ from the library's %d", len(got), len(want))
			}

			summaryLine := lines[len(lines)-1]
			var sum hgio.MatchSummary
			if err := json.Unmarshal(summaryLine, &sum); err != nil {
				t.Fatalf("bad summary line %q: %v", summaryLine, err)
			}
			var re bytes.Buffer
			json.NewEncoder(&re).Encode(sum)
			if !bytes.Equal(summaryLine, re.Bytes()) {
				t.Fatalf("summary line %q, encoding/json writes %q", summaryLine, re.Bytes())
			}
			if !sum.Done || sum.Error != "" || sum.Embeddings != uint64(len(want)) {
				t.Fatalf("summary %+v, want done with %d embeddings", sum, len(want))
			}
			if !slices.Equal(sum.Order, plan.Order()) {
				t.Fatalf("summary order %v, library plan order %v", sum.Order, plan.Order())
			}

			resp, err = http.Post(v.srv.URL+"/count", "application/json", matchBody(t, req))
			if err != nil {
				t.Fatal(err)
			}
			var count hgio.MatchSummary
			err = json.NewDecoder(resp.Body).Decode(&count)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			sum.ElapsedUs, sum.PlanCached = count.ElapsedUs, count.PlanCached
			if !reflect.DeepEqual(sum, count) {
				t.Fatalf("/match summary %+v, /count summary %+v", sum, count)
			}
		})
	}
}

// TestRequestTrailingData checks that a match/count body is exactly one
// JSON object: trailing whitespace is allowed, but garbage or a second
// object after it (which would otherwise dodge DisallowUnknownFields) is
// a 400 "bad request body", and trailing bytes past the body limit a 413.
func TestRequestTrailingData(t *testing.T) {
	srv := httptest.NewServer(newTestServer(t, Config{}).Handler())
	defer srv.Close()
	valid, err := json.Marshal(hgio.MatchRequest{Graph: "fig1", Query: fig1QueryText})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"valid", string(valid), http.StatusOK},
		{"trailing newline", string(valid) + "\n", http.StatusOK},
		{"trailing whitespace", string(valid) + " \r\n\t ", http.StatusOK},
		{"trailing garbage", string(valid) + "garbage", http.StatusBadRequest},
		{"second object", string(valid) + ` {"bogus":1}`, http.StatusBadRequest},
		{"stray brace", string(valid) + "}", http.StatusBadRequest},
	} {
		for _, route := range []string{"/match", "/count"} {
			t.Run(tc.name+route, func(t *testing.T) {
				resp, err := http.Post(srv.URL+route, "application/json", strings.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != tc.want {
					t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
				}
				if tc.want != http.StatusBadRequest {
					return
				}
				var er hgio.ErrorResponse
				if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
					t.Fatal(err)
				}
				if !strings.HasPrefix(er.Error, "bad request body") {
					t.Fatalf("error %q, want a bad request body error", er.Error)
				}
			})
		}
	}

	// Trailing bytes count against the body limit: past it, 413.
	small := httptest.NewServer(newTestServer(t, Config{MaxBodyBytes: int64(len(valid)) + 16}).Handler())
	defer small.Close()
	resp, err := http.Post(small.URL+"/count", "application/json", strings.NewReader(string(valid)+strings.Repeat(" ", 64)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit trailing whitespace: status %d, want 413", resp.StatusCode)
	}
}
