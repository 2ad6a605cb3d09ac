package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hgmatch/internal/hgio"
)

// maxConns is the generator's connection cap: one per vCPU of the 2-vCPU
// machine the workloads are sized for.
const maxConns = 2

// server is one running hgserve process and the client that talks to it.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	client *http.Client
	log    *os.File
	exited chan struct{} // closed once the process has been waited for
	setup  time.Duration // exec until the graph answered its first /count
}

// startServer execs hgserve on a free loopback port and returns once the
// data graph has answered a /count with 200, polling at sub-millisecond
// intervals so the set-up time is not quantised by the poll.
func startServer(bin string, args []string, dir string, probe []byte) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "hgserve.log"))
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{
		base: "http://" + addr,
		log:  logf,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		}},
	}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	// Should the benchmark die without stopping it, the kernel kills the
	// server too.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s.exited = make(chan struct{})
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	poll := &http.Client{Timeout: 10 * time.Second}
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := poll.Post(s.base+"/count", "application/json", bytes.NewReader(probe))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				break
			}
		}
		select {
		case <-s.exited:
			s.stop()
			return nil, fmt.Errorf("hgserve exited during start-up; log tail:\n%s", s.logTail())
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("hgserve not ready after 60s; log tail:\n%s", s.logTail())
		}
		time.Sleep(200 * time.Microsecond)
	}
	poll.CloseIdleConnections()
	return s, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop terminates the process, waits for it, and closes the log.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
	s.log.Close()
}

func (s *server) logTail() string {
	data, _ := os.ReadFile(s.log.Name())
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// post sends a JSON or NDJSON body and decodes a JSON response into v.
func (s *server) post(path string, body []byte, v any) (time.Duration, error) {
	start := time.Now()
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	return d, json.Unmarshal(data, v)
}

func (s *server) get(path string, v any) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (s *server) count(q *query) (hgio.MatchSummary, time.Duration, error) {
	var sum hgio.MatchSummary
	d, err := s.post("/count", q.body, &sum)
	return sum, d, err
}

// matchResult is one /match stream as the client saw it.
type matchResult struct {
	summary hgio.MatchSummary
	rows    *rowSum
	ttfr    time.Duration // request sent until the first row arrived
	total   time.Duration // request sent until the stream ended
}

// match streams a /match to the end, checksumming rows as they arrive.
// order is the plan's matching order, taken from a /count of the same
// query on the same graph version.
func (s *server) match(ctx context.Context, q *query, order []uint32) (matchResult, error) {
	var r matchResult
	r.rows = newRowSum(order)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/match", bytes.NewReader(q.body))
	if err != nil {
		return r, err
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return r, fmt.Errorf("POST /match: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	row := make([]uint32, 0, len(order))
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return r, fmt.Errorf("/match stream ended without a summary: %v", err)
		}
		if row, ok := parseRow(line, row[:0]); ok {
			if r.rows.rows == 0 {
				r.ttfr = time.Since(start)
			}
			if !r.rows.add(row) {
				return r, fmt.Errorf("/match row %q has the wrong width", line)
			}
			continue
		}
		if err := json.Unmarshal(line, &r.summary); err != nil {
			return r, fmt.Errorf("/match line %q: %v", line, err)
		}
		r.total = time.Since(start)
		if r.rows.rows == 0 {
			r.ttfr = r.total
		}
		return r, nil
	}
}

// parseRow decodes an EmbeddingRecord line, {"embedding":[e1,e2,...]},
// without reflection; any other line reports false.
func parseRow(line []byte, row []uint32) ([]uint32, bool) {
	const prefix = `{"embedding":[`
	if !bytes.HasPrefix(line, []byte(prefix)) {
		return row, false
	}
	var v uint64
	digits := false
	for _, c := range line[len(prefix):] {
		switch {
		case c >= '0' && c <= '9':
			v = v*10 + uint64(c-'0')
			digits = true
		case c == ',' || c == ']':
			if !digits {
				return row, false
			}
			row = append(row, uint32(v))
			v, digits = 0, false
			if c == ']' {
				return row, true
			}
		default:
			return row, false
		}
	}
	return row, false
}

func (s *server) ingest(b *batch) (hgio.IngestSummary, time.Duration, error) {
	var sum hgio.IngestSummary
	d, err := s.post("/graphs/"+graphName+"/edges", b.body, &sum)
	return sum, d, err
}
