package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"parahash"
	"parahash/internal/graph"
)

// httpJob decodes the JSON job record from a response body.
func httpJob(t *testing.T, resp *http.Response) JobRecord {
	t.Helper()
	defer resp.Body.Close()
	var rec JobRecord
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatalf("decoding job record: %v", err)
	}
	return rec
}

func TestHTTPLifecycle(t *testing.T) {
	input := tinyFASTQ(t)
	m, err := Open(Options{Root: t.TempDir(), Base: testBase(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()

	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %v %v, want 200", resp.StatusCode, err)
	}

	resp, err := http.Post(ts.URL+"/v1/jobs?partitions=8", "application/x-fastq", bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	rec := httpJob(t, resp)
	if rec.ID == "" || rec.State != StateQueued {
		t.Fatalf("submit returned %+v", rec)
	}

	// Poll status until done.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		got := httpJob(t, resp)
		if got.State == StateDone {
			break
		}
		if got.State.Terminal() {
			t.Fatalf("job reached %s: %s", got.State, got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Listing includes the job.
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobRecord
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != rec.ID {
		t.Fatalf("job list = %+v", list)
	}

	// Graph download is byte-identical to the oracle.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + rec.ID + "/graph")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("graph download = %d, %v", resp.StatusCode, err)
	}
	want := oracleGraphBytes(t, input, testBase())
	if !bytes.Equal(got, want) {
		t.Fatal("downloaded graph differs from oracle")
	}

	// Metrics document parses as JSON.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + rec.ID + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	resp.Body.Close()

	// Query a present k-mer through the API.
	g, err := parahash.ReadGraph(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	kmer := g.Vertices[0].Kmer.String(g.K)
	resp, err = http.Get(ts.URL + "/v1/jobs/" + rec.ID + "/query?kmer=" + kmer)
	if err != nil {
		t.Fatal(err)
	}
	var q QueryResult
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !q.Present || q.Multiplicity < 1 {
		t.Fatalf("query result %+v for known vertex", q)
	}

	// Stats exposes the governance counters.
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Unknown job is a typed 404.
	resp, err = http.Get(ts.URL + "/v1/jobs/j9999")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", resp.StatusCode)
	}
	var apiErr apiError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil || apiErr.Reason != "unknown_job" {
		t.Fatalf("unknown job error body = %+v, %v", apiErr, err)
	}
	resp.Body.Close()
}

// TestHTTPShedding verifies the 429 + Retry-After contract under overload
// and while draining.
func TestHTTPShedding(t *testing.T) {
	input := tinyFASTQ(t)
	// The accepted job is held at the start of its build until the later
	// submissions have been shed, however fast a build is.
	release := make(chan struct{})
	m, err := Open(Options{Root: t.TempDir(), Base: testBase(), MaxQueue: 1, Logf: t.Logf,
		WrapJobConfig: func(_ string, cfg parahash.Config) parahash.Config {
			<-release
			return cfg
		}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()

	var sawShed bool
	var acceptedID string
	for i := 0; i < 4; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/x-fastq", bytes.NewReader(input))
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			acceptedID = httpJob(t, resp).ID
			continue
		case http.StatusTooManyRequests:
		default:
			t.Fatalf("submit %d = %d", i, resp.StatusCode)
		}
		sawShed = true
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Error("429 without Retry-After header")
		}
		var apiErr apiError
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil || apiErr.Reason != "queue_full" {
			t.Fatalf("shed error body = %+v, %v", apiErr, err)
		}
		resp.Body.Close()
	}
	close(release)
	if !sawShed {
		t.Fatal("no submission shed despite MaxQueue=1")
	}
	waitJobState(t, m, acceptedID, StateDone)

	// Draining flips healthz to 503 and sheds with reason "draining".
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/x-fastq", bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit while draining = %d, want 429", resp.StatusCode)
	}
	var apiErr apiError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil || apiErr.Reason != "draining" {
		t.Fatalf("draining error body = %+v, %v", apiErr, err)
	}
	resp.Body.Close()
}

func TestHTTPBadRequests(t *testing.T) {
	m, err := Open(Options{Root: t.TempDir(), Base: testBase(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()

	for _, tc := range []struct {
		name, url, body string
	}{
		{"bad k", "/v1/jobs?k=zero", "@r\nACGT\n+\nIIII\n"},
		{"bad deadline", "/v1/jobs?deadline_secs=-1", "@r\nACGT\n+\nIIII\n"},
		{"empty input", "/v1/jobs", ""},
	} {
		resp, err := http.Post(ts.URL+tc.url, "application/x-fastq", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			b, _ := io.ReadAll(resp.Body)
			t.Errorf("%s: status %d, body %s, want 400", tc.name, resp.StatusCode, b)
		}
		resp.Body.Close()
	}

	// Query against a job that is not done is a 409.
	rec, err := m.Submit(JobSpec{}, bytes.NewReader(tinyFASTQ(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/graph", ts.URL, rec.ID))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict && resp.StatusCode != http.StatusOK {
		t.Errorf("graph fetch on in-flight job = %d, want 409 (or 200 if already done)", resp.StatusCode)
	}
	resp.Body.Close()
	waitJobState(t, m, rec.ID, StateDone)
}

// TestHTTPQueryStatusCodes: a malformed k-mer is the client's fault (400,
// and the graph file is never opened for it), a damaged graph file the
// server's (500 graph_damaged, with a typed cause) — and neither a
// truncated file nor a header claiming 2^36 vertices stops the daemon
// answering for its other jobs.
func TestHTTPQueryStatusCodes(t *testing.T) {
	m, err := Open(Options{Root: t.TempDir(), Base: testBase(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()
	ids := buildJobs(t, m, tinyFASTQ(t), 2)
	kmer, _ := middleVertex(t, m, ids[0])

	expect := func(what, id, kmer string, status int, reason string) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/query?kmer=%s", ts.URL, id, kmer))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body apiError
		if resp.StatusCode != http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
		}
		if resp.StatusCode != status || body.Reason != reason {
			t.Errorf("%s: status %d reason %q (%s), want %d %q", what, resp.StatusCode, body.Reason, body.Error, status, reason)
		}
	}
	expect("wrong length", ids[0], "ACGT", http.StatusBadRequest, "bad_request")
	expect("non-ACGT base", ids[0], strings.Repeat("N", len(kmer)), http.StatusBadRequest, "bad_request")
	expect("unknown job", "j9999", kmer, http.StatusNotFound, "unknown_job")
	if s := m.Stats(); s.GraphsCached != 0 {
		t.Errorf("GraphsCached = %d after only refused queries, want 0", s.GraphsCached)
	}

	image, err := os.ReadFile(m.GraphPath(ids[0]))
	if err != nil {
		t.Fatal(err)
	}
	hugeCount := bytes.Clone(image[:14])
	binary.LittleEndian.PutUint64(hugeCount[6:], 1<<36)
	for what, damaged := range map[string][]byte{
		"truncated":           image[:len(image)-7],
		"padded":              append(bytes.Clone(image), 0),
		"2^36-vertex header":  hugeCount,
		"2^36 count, body on": append(hugeCount, image[14:]...),
	} {
		if err := os.WriteFile(m.GraphPath(ids[0]), damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		expect(what, ids[0], kmer, http.StatusInternalServerError, "graph_damaged")
		if _, err := m.Query(ids[0], kmer); !errors.Is(err, graph.ErrBadFormat) {
			t.Errorf("%s: Query err = %v, want graph.ErrBadFormat", what, err)
		}
		expect(what+": the other job", ids[1], kmer, http.StatusOK, "")
	}
	if err := os.Remove(m.GraphPath(ids[0])); err != nil {
		t.Fatal(err)
	}
	expect("missing file", ids[0], kmer, http.StatusInternalServerError, "graph_damaged")
}
