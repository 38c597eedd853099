package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"parahash"
	"parahash/internal/faultinject"
	"parahash/internal/manifest"
	"parahash/internal/server"
)

func TestParseBytes(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"1024", 1024, true},
		{"512M", 512 << 20, true},
		{"2G", 2 << 30, true},
		{"512MiB", 512 << 20, true},
		{"0", 0, false},
		{"abc", 0, false},
	} {
		got, err := parseBytes(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("parseBytes(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("parseBytes(%q) = %d, want error", c.in, got)
		}
	}
}

func TestRunRequiresDataDir(t *testing.T) {
	if err := run([]string{"-addr", "127.0.0.1:0"}, io.Discard); err == nil {
		t.Fatal("run without -data succeeded")
	}
}

// daemonArgs is the shared daemon invocation for the e2e tests; the
// in-process oracle must be built with the matching configuration.
func daemonArgs(dataDir, addrFile string) []string {
	return []string{
		"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-data", dataDir,
		"-partitions", "8", "-threads", "4", "-jitter-seed", "1",
	}
}

// oracleConfig mirrors daemonArgs for the fault-free reference build.
func oracleConfig() parahash.Config {
	cfg := parahash.DefaultConfig()
	cfg.NumPartitions = 8
	cfg.CPUThreads = 4
	cfg.NumGPUs = 0
	return cfg
}

// tinyFASTQBytes renders the tiny synthetic dataset as FASTQ.
func tinyFASTQBytes(t *testing.T) []byte {
	t.Helper()
	d, err := parahash.GenerateDataset(parahash.TinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := parahash.WriteFASTQ(&buf, d.Reads); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// logBuffer collects a child daemon's output. The exec stdout copier
// goroutine writes while the test goroutine reads (failure dumps, the
// "recovery:" assertion), so both sides take the lock.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startDaemon re-execs this test binary as a parahashd daemon and waits
// for it to publish its bound address.
func startDaemon(t *testing.T, dataDir string, extraEnv ...string) (*exec.Cmd, string, *logBuffer) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(os.Args[0], "-test.run", "^TestParahashdHelper$")
	var out logBuffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	cmd.Env = append(os.Environ(),
		"PARAHASHD_E2E_HELPER=1",
		"PARAHASHD_E2E_ARGS="+strings.Join(daemonArgs(dataDir, addrFile), "\x1f"))
	cmd.Env = append(cmd.Env, extraEnv...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil {
			return cmd, strings.TrimSpace(string(b)), &out
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("daemon never published its address:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitHealthz polls /healthz until it answers 200, reporting whether an
// unready (non-200) answer was observed on the way — the unready→ready
// flip the CI smoke asserts.
func waitHealthz(t *testing.T, addr string, out *logBuffer) (sawUnready bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				return sawUnready
			}
			sawUnready = true
		} else {
			sawUnready = true
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became healthy:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// submitJob posts the FASTQ body and returns the accepted job record.
func submitJob(t *testing.T, addr string, input []byte) server.JobRecord {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/v1/jobs", "application/x-fastq", bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit = %d: %s", resp.StatusCode, b)
	}
	var rec server.JobRecord
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// waitJobDone polls the job's status endpoint until it reports done.
func waitJobDone(t *testing.T, addr, id string, out *logBuffer) server.JobRecord {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(fmt.Sprintf("http://%s/v1/jobs/%s", addr, id))
		if err == nil && resp.StatusCode == http.StatusOK {
			var rec server.JobRecord
			err = json.NewDecoder(resp.Body).Decode(&rec)
			resp.Body.Close()
			if err == nil {
				if rec.State == server.StateDone {
					return rec
				}
				if rec.State.Terminal() {
					t.Fatalf("job %s reached %s: %s\n%s", id, rec.State, rec.Error, out.String())
				}
			}
		} else if resp != nil {
			resp.Body.Close()
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never completed:\n%s", id, out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fetchGraph downloads a completed job's graph bytes.
func fetchGraph(t *testing.T, addr, id string) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/v1/jobs/%s/graph", addr, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("graph download = %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// oracleBytes is the fault-free reference graph for the e2e inputs.
func oracleBytes(t *testing.T, input []byte) []byte {
	t.Helper()
	reads, err := parahash.ParseReads(bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	res, err := parahash.Build(reads, oracleConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Graph.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDaemonCrashResumeE2E is the crash-recovery acceptance test: the
// daemon SIGKILLs itself mid-Step-2 (armed crash point, exactly as a power
// loss would land), a fresh daemon over the same data directory recovers
// the journalled job through scrub+resume, and the final graph is
// byte-identical to a fault-free build. The restarted daemon's /healthz
// must flip unready→ready.
func TestDaemonCrashResumeE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec e2e skipped in -short")
	}
	dataDir := t.TempDir()
	input := tinyFASTQBytes(t)

	// Phase 1: daemon armed to die after the save that claims the 2nd Step 2
	// partition of its first build (a group claim: at least 2 are journalled).
	cmd, addr, out := startDaemon(t, dataDir,
		faultinject.CrashEnv+"=step2.partition:2")
	waitHealthz(t, addr, out)
	rec := submitJob(t, addr, input)

	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	var err error
	select {
	case err = <-waitErr:
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("daemon did not crash at the armed point:\n%s", out.String())
	}
	if err == nil {
		t.Fatalf("daemon exited cleanly, wanted a SIGKILL-style crash:\n%s", out.String())
	}

	// The crash left the job journalled running with a partial checkpoint.
	j, jerr := server.OpenJournal(filepath.Join(dataDir, "jobs.json"))
	if jerr != nil {
		t.Fatal(jerr)
	}
	if r, ok := j.Get(rec.ID); !ok || r.State != server.StateRunning {
		t.Fatalf("post-crash journal state = %+v (ok=%v), want running", r, ok)
	}
	man, merr := manifest.Load(filepath.Join(dataDir, "jobs", rec.ID, "checkpoint", "manifest.json"))
	if merr != nil || len(man.Step2) < 2 {
		t.Fatalf("post-crash manifest: %v (step2=%d), want >= 2 claims", merr, len(man.Step2))
	}

	// Phase 2: a fresh daemon recovers and resumes the job. The held
	// starting window makes the unready→ready /healthz flip observable.
	cmd2, addr2, out2 := startDaemon(t, dataDir, "PARAHASHD_HOLD_STARTING_MS=300")
	defer func() {
		cmd2.Process.Signal(os.Interrupt)
		cmd2.Wait()
	}()
	if sawUnready := waitHealthz(t, addr2, out2); !sawUnready {
		t.Error("healthz never answered unready before flipping ready")
	}
	done := waitJobDone(t, addr2, rec.ID, out2)
	if !done.Resumed {
		t.Errorf("recovered job not marked resumed: %+v", done)
	}
	if got, want := fetchGraph(t, addr2, rec.ID), oracleBytes(t, input); !bytes.Equal(got, want) {
		t.Fatal("crash-recovered graph differs from fault-free oracle")
	}
	if !strings.Contains(out2.String(), "recovery:") {
		t.Errorf("restart did not report recovery:\n%s", out2.String())
	}
}

// TestDaemonSigtermDrainE2E is the graceful-drain acceptance test: SIGTERM
// while a job is wedged mid-Step-2 must exit 0 with the job journalled
// back to queued, its checkpoint intact, and no tmp litter; a restarted
// daemon resumes it to the oracle graph.
func TestDaemonSigtermDrainE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec e2e skipped in -short")
	}
	dataDir := t.TempDir()
	input := tinyFASTQBytes(t)

	cmd, addr, out := startDaemon(t, dataDir,
		faultinject.StallEnv+"=step2.partition:2")
	waitHealthz(t, addr, out)
	rec := submitJob(t, addr, input)

	// Wait for two journalled Step 2 claims (the stall holds the committer
	// right after the save that claims the second), then SIGTERM.
	mpath := filepath.Join(dataDir, "jobs", rec.ID, "checkpoint", "manifest.json")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if m, err := manifest.Load(mpath); err == nil && len(m.Step2) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("daemon never journalled 2 Step 2 claims:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("drain exit = %v, want 0:\n%s", err, out.String())
		}
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("daemon did not drain within the grace period:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "drained cleanly") {
		t.Errorf("drain not reported:\n%s", out.String())
	}

	// Drained state: job journalled queued for resume, no tmp litter.
	j, err := server.OpenJournal(filepath.Join(dataDir, "jobs.json"))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := j.Get(rec.ID)
	if !ok || r.State != server.StateQueued || !r.Resumed {
		t.Fatalf("post-drain journal = %+v (ok=%v), want queued+resumed", r, ok)
	}
	filepath.WalkDir(dataDir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".tmp") {
			t.Errorf("drain left tmp litter: %s", path)
		}
		return nil
	})

	// Restart resumes to the oracle graph.
	cmd2, addr2, out2 := startDaemon(t, dataDir)
	defer func() {
		cmd2.Process.Signal(os.Interrupt)
		cmd2.Wait()
	}()
	waitHealthz(t, addr2, out2)
	waitJobDone(t, addr2, rec.ID, out2)
	if got, want := fetchGraph(t, addr2, rec.ID), oracleBytes(t, input); !bytes.Equal(got, want) {
		t.Fatal("drain-resumed graph differs from fault-free oracle")
	}
}

// TestParahashdHelper is the re-exec target for the daemon e2e tests; it
// is a no-op in a normal test run.
func TestParahashdHelper(t *testing.T) {
	if os.Getenv("PARAHASHD_E2E_HELPER") != "1" {
		t.Skip("helper for the daemon e2e tests")
	}
	args := strings.Split(os.Getenv("PARAHASHD_E2E_ARGS"), "\x1f")
	if err := run(args, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "parahashd helper:", err)
		os.Exit(1)
	}
	os.Exit(0)
}
