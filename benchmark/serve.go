package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serveJobs is how many distinct graphs a daemon of the serve workload builds
// and then answers queries from; it fits parahashd's default -graph-cache 8,
// so warm queries never reload a graph and cold ones (after a restart) always
// do. A daemon that has built more than the cache holds takes about 1.5x as
// long per job, so more samples come from another round on a fresh daemon,
// not from a seventh job.
const serveJobs = 6

// coldRestarts is how many times phase C of a round restarts the daemon;
// every restart yields one cold first query per job.
const coldRestarts = 3

// daemon is a running parahashd.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	log  bytes.Buffer
}

// startDaemon launches parahashd on an ephemeral port and waits until
// /healthz answers 200, i.e. until recovery has finished.
func (e *env) startDaemon(data string) (*daemon, error) {
	addrFile := filepath.Join(filepath.Dir(data), "addr")
	os.Remove(addrFile)
	d := &daemon{cmd: exec.Command(filepath.Join(e.bin, "parahashd"),
		"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-data", data, "-threads", strconv.Itoa(e.nproc))}
	d.cmd.Stdout, d.cmd.Stderr = &d.log, &d.log
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if d.base == "" {
			if addr, err := os.ReadFile(addrFile); err == nil {
				d.base = "http://" + strings.TrimSpace(string(addr))
			}
		}
		if d.base != "" {
			if resp, err := http.Get(d.base + "/healthz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.kill()
	return nil, fmt.Errorf("parahashd never became healthy: %s", d.log.String())
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// stop drains the daemon with SIGTERM and waits for it to exit 0.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("parahashd did not drain cleanly: %w: %s", err, d.log.String())
	}
	return nil
}

// cpuSeconds is the daemon's user+system CPU time so far, from
// /proc/<pid>/stat (clock ticks; USER_HZ is 100 on every Linux ABI).
func (d *daemon) cpuSeconds() float64 {
	data, _ := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the ')'.
	rest := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(rest) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(rest[11], 64)
	stime, _ := strconv.ParseFloat(rest[12], 64)
	return (utime + stime) / 100
}

// peakRSSMB is the daemon's high-water resident set (VmHWM).
func (d *daemon) peakRSSMB() float64 {
	data, _ := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// jobStatus is the part of parahashd's job record the harness reads.
type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

// queryAnswer is the part of parahashd's query response the harness checks.
type queryAnswer struct {
	Present      bool `json:"present"`
	Multiplicity int  `json:"multiplicity"`
	Degree       int  `json:"degree"`
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// ask sends one k-mer query and checks the answer against the oracle's.
func ask(c *http.Client, base, job string, q query) string {
	var a queryAnswer
	if err := getJSON(c, base+"/v1/jobs/"+job+"/query?kmer="+q.kmer, &a); err != nil {
		return err.Error()
	}
	if a.Present != q.present || a.Multiplicity != q.multiplicity || a.Degree != q.degree {
		return fmt.Sprintf("job %s query %s answered %+v, oracle says %+v", job, q.kmer, a, q)
	}
	return ""
}

// runServe is the serve workload against the real parahashd, in rounds so
// that every metric's samples are spread over the whole measuring time. A
// round is a fresh daemon and data directory, then
//
//	A  serveJobs builds submitted one at a time by one client (closed loop),
//	   each polled every 10 ms until done;
//	B  nproc closed-loop clients querying the finished graphs, half present
//	   and half absent k-mers, uniformly over the jobs, for 1/16 of the
//	   measuring time;
//	C  SIGTERM, restart on the same data directory, first query to each job;
//	   coldRestarts times over.
//
// Rounds repeat until the measuring time is used. Spans are recorded around
// the same calls either way; a traced run adds the in-process server, hooked
// build and layer replay pass.
func (e *env) runServe(r *recorder, dir string) error {
	s := &serveRun{env: e, r: r, data: filepath.Join(dir, "data"),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: e.nproc}}}
	defer func() {
		if s.d != nil { // an error path left the daemon running
			s.d.kill()
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		if s.d != nil { // draining the previous set-up's daemon is not set-up
			if err := s.stop(); err != nil {
				return err
			}
		}
		start := time.Now()
		s.inputs = s.inputs[:0]
		for j := 0; j < serveJobs; j++ {
			in, err := makeInput(sparse(e.scale, e.seed, j), filepath.Join(dir, fmt.Sprintf("job%d.fq", j)))
			if err != nil {
				return err
			}
			s.inputs = append(s.inputs, in)
		}
		if err := s.fresh(); err != nil {
			return err
		}
		r.add("setup_s", time.Since(start).Seconds())
	}
	s.root = r.tr.begin(0, "serve")
	defer r.tr.finish(s.root)

	// The first round runs on the daemon set-up started. Another round
	// starts while at least half of one fits the measuring time.
	budget := time.Duration(e.seconds * float64(time.Second))
	for n, begin, last := 0, time.Now(), time.Duration(0); n == 0 || time.Since(begin) < budget-last/2; n++ {
		if n > 0 {
			if err := s.fresh(); err != nil {
				return err
			}
		}
		start := time.Now()
		if err := s.round(n); err != nil {
			return err
		}
		last = time.Since(start)
	}
	if err := s.stop(); err != nil {
		return err
	}
	sort.Float64s(s.warm)
	r.set("serve.query_p50_us", percentile(s.warm, 0.50))
	r.set("serve.query_p99_us", percentile(s.warm, 0.99))
	r.set("serve.query_per_s", float64(len(s.warm))/s.warmTime.Seconds())
	if r.traced {
		return e.traceServe(r, s.root, dir, s.inputs[0])
	}
	return nil
}

// serveRun is the state of one serve run: the daemon of the current round,
// the inputs every round builds, and the warm-query latencies of all rounds.
type serveRun struct {
	*env
	r      *recorder
	root   int // root span
	data   string
	client *http.Client
	inputs []*input
	d      *daemon

	warm     []float64 // phase B latencies in microseconds
	warmTime time.Duration
}

// stop drains the running daemon.
func (s *serveRun) stop() error {
	err := s.d.stop()
	s.d = nil
	return err
}

// fresh replaces the running daemon, if any, by one on an empty data
// directory.
func (s *serveRun) fresh() error {
	if s.d != nil {
		if err := s.stop(); err != nil {
			return err
		}
	}
	os.RemoveAll(s.data)
	var err error
	s.d, err = s.startDaemon(s.data)
	return err
}

// round is phases A, B and C on the running daemon, which has built nothing
// yet.
func (s *serveRun) round(n int) error {
	r, client := s.r, s.client

	// Phase A.
	ids := make([]string, serveJobs)
	for j, in := range s.inputs {
		body, err := os.ReadFile(in.path)
		if err != nil {
			return err
		}
		var st jobStatus
		cpu0 := s.d.cpuSeconds()
		start := time.Now()
		resp, err := client.Post(s.d.base+"/v1/jobs", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			return err
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("submitting job %d: %s %v", j, resp.Status, err)
		}
		acked := time.Now()
		for st.State != "done" && st.State != "failed" && st.State != "canceled" {
			time.Sleep(10 * time.Millisecond)
			if err := getJSON(client, s.d.base+"/v1/jobs/"+st.ID, &st); err != nil {
				return err
			}
		}
		done := time.Now()
		cpu := s.d.cpuSeconds() - cpu0
		r.tr.add(s.root, "serve.submit", start, acked)
		r.tr.add(s.root, "serve.wait_done", acked, done)
		if st.State != "done" {
			r.op(fmt.Sprintf("job %s ended %s: %s", st.ID, st.State, st.Error))
			continue
		}
		ids[j] = st.ID

		// Every graph is downloaded once and checked against the oracle,
		// outside any timed region.
		resp, err = client.Get(s.d.base + "/v1/jobs/" + st.ID + "/graph")
		if err != nil {
			return err
		}
		sum, _, err := shaOf(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
			r.op(err.Error())
		case resp.StatusCode != http.StatusOK || sum != in.oracleSHA:
			r.op(fmt.Sprintf("job %s graph: %s, SHA-256 %x, oracle %x", st.ID, resp.Status, sum[:6], in.oracleSHA[:6]))
		default:
			r.op("")
			r.add("build_wall_s", done.Sub(start).Seconds())
			r.add("build_cpu_s", cpu)
		}
	}

	// Phase B.
	phaseB := time.Duration(s.seconds / 16 * float64(time.Second))
	lat := make([][]float64, s.nproc)
	fails := make([][]string, s.nproc)
	var wg sync.WaitGroup
	startB := time.Now()
	for c := 0; c < s.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(s.seed<<16 + int64(n)<<8 + int64(c)))
			for time.Since(startB) < phaseB {
				j := rng.Intn(serveJobs)
				q := s.inputs[j].queries[rng.Intn(len(s.inputs[j].queries))]
				t0 := time.Now()
				problem := ask(client, s.d.base, ids[j], q)
				lat[c] = append(lat[c], float64(time.Since(t0).Nanoseconds())/1e3)
				if problem != "" {
					fails[c] = append(fails[c], problem)
				}
			}
		}(c)
	}
	wg.Wait()
	endB := time.Now()
	r.tr.add(s.root, "serve.queries", startB, endB)
	s.warmTime += endB.Sub(startB)
	for c := range lat {
		s.warm = append(s.warm, lat[c]...)
		r.attempted += len(lat[c])
		r.failures = append(r.failures, fails[c]...)
	}
	r.add("build_peak_rss_mb", s.d.peakRSSMB())

	// Phase C.
	for i := 0; i < coldRestarts; i++ {
		restart := time.Now()
		if err := s.stop(); err != nil {
			return err
		}
		var err error
		if s.d, err = s.startDaemon(s.data); err != nil {
			return err
		}
		r.tr.add(s.root, "serve.restart", restart, time.Now())
		// One sample per restart, the mean over the jobs: single jobs
		// differ by up to half (23 to 38 ms at scale 0.2), the same job
		// the same way at every restart, so the fastest job would be a
		// property of the seed.
		var sum time.Duration
		failed := false
		for j, in := range s.inputs {
			t0 := time.Now()
			problem := ask(client, s.d.base, ids[j], in.queries[((n*coldRestarts+i)*serveJobs+j)%len(in.queries)])
			t1 := time.Now()
			r.tr.add(s.root, "serve.query_cold", t0, t1)
			r.op(problem)
			sum += t1.Sub(t0)
			failed = failed || problem != ""
		}
		if !failed {
			r.add("query_cold_ms", float64(sum.Nanoseconds())/1e6/serveJobs)
		}
	}
	return nil
}
