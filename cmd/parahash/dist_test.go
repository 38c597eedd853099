package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"parahash/internal/core"
	"parahash/internal/dist"
	"parahash/internal/faultinject"
	"parahash/internal/manifest"
)

func TestRunWorkersRequireCheckpointDir(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-profile", "tiny", "-workers", "2"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "-checkpoint-dir") {
		t.Fatalf("err = %v, want checkpoint-dir requirement", err)
	}
	err = run([]string{"-profile", "tiny", "-dist-worker", "w0"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "-checkpoint-dir") {
		t.Fatalf("err = %v, want checkpoint-dir requirement", err)
	}
}

// TestDistWorkerAcceptsRetiredTableFlag runs a -workers build whose workers
// get the argument list benchmark/layers.go gives them, the retired
// "-table statetransfer" included: it must still parse, and the build must
// match a single-process one byte for byte.
func TestDistWorkerAcceptsRetiredTableFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec e2e skipped in -short")
	}
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck")
	cleanOut := filepath.Join(dir, "clean.dbg")
	distOut := filepath.Join(dir, "dist.dbg")
	var buf bytes.Buffer
	if err := run([]string{"-profile", "tiny", "-partitions", "16", "-threads", "2",
		"-checkpoint-dir", filepath.Join(dir, "ck-clean"), "-out", cleanOut}, &buf); err != nil {
		t.Fatal(err)
	}

	orig := workerCommand
	defer func() { workerCommand = orig }()
	helper := helperWorkers(nil)
	workerCommand = func(args []string) (*exec.Cmd, error) {
		// args ends in -dist-worker=<id>; the rest is what layers.go passes.
		return helper([]string{"-k", "27", "-p", "11", "-partitions", "16",
			"-threads", "2", "-gpus", "0", "-medium", "mem",
			"-lambda", "2", "-alpha", "0.65",
			"-table", "statetransfer", "-checkpoint-dir", ck, args[len(args)-1]})
	}
	if err := run([]string{"-profile", "tiny", "-partitions", "16", "-threads", "2",
		"-checkpoint-dir", ck, "-out", distOut, "-workers", "2"}, &buf); err != nil {
		t.Fatalf("distributed build failed: %v\n%s", err, buf.String())
	}
	a, err := os.ReadFile(cleanOut)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(distOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("distributed output differs from single-process build")
	}
}

// TestDistE2E is the distributed end-to-end fault drill from the issue: a
// 4-worker build where worker w1 is SIGKILL'd mid-Step-2 (result published
// but unreported) and worker w2 hangs past its lease, which must still
// converge byte-identically to a single-process build, leave zero fenced
// litter, and leave a manifest that is scrub-clean on restart.
func TestDistE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec e2e skipped in -short")
	}
	dir := t.TempDir()
	cleanOut := filepath.Join(dir, "clean.dbg")
	distOut := filepath.Join(dir, "dist.dbg")
	ck := filepath.Join(dir, "ck")

	// Reference: single-process run of the same profile.
	var buf bytes.Buffer
	if err := run([]string{"-profile", "tiny", "-partitions", "16", "-threads", "4",
		"-checkpoint-dir", filepath.Join(dir, "ck-clean"), "-out", cleanOut}, &buf); err != nil {
		t.Fatal(err)
	}

	// Distributed run: workers are this test binary re-executed into the
	// worker helper, with per-worker fault points armed through the
	// environment exactly as they would be against the real binary.
	orig := workerCommand
	defer func() { workerCommand = orig }()
	workerCommand = helperWorkers(func(id string) []string {
		switch id {
		case "w1":
			// SIGKILL after publishing its second fenced result, before
			// reporting it.
			return []string{faultinject.CrashEnv + "=" + dist.CrashPoint + ":2"}
		case "w2":
			// Wedge mid-lease, right after the first heartbeat; only lease
			// expiry reclaims it.
			return []string{faultinject.StallEnv + "=" + dist.CrashPoint + ":1"}
		}
		return nil
	})

	buf.Reset()
	err := run([]string{"-profile", "tiny", "-partitions", "16", "-threads", "4",
		"-checkpoint-dir", ck, "-out", distOut,
		"-workers", "4", "-dist-lease-ms", "600"}, &buf)
	if err != nil {
		t.Fatalf("distributed build failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "distributed build: 4 workers") {
		t.Errorf("distributed summary missing:\n%s", buf.String())
	}

	// Byte-identical convergence with the single-process reference.
	a, err := os.ReadFile(cleanOut)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(distOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("distributed output differs from single-process build")
	}

	// Zero fenced-write corruption: no token-suffixed files survive, no
	// leases remain journalled.
	entries, err := os.ReadDir(filepath.Join(ck, "data", "subgraphs"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".t") {
			t.Fatalf("fenced orphan %q survived the sweep", e.Name())
		}
	}
	m, err := manifest.Load(filepath.Join(ck, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Leases) != 0 {
		t.Fatalf("%d leases left in the manifest", len(m.Leases))
	}
	if len(m.Step2) != 16 {
		t.Fatalf("manifest journals %d of 16 partitions", len(m.Step2))
	}

	// The checkpoint a restart would see is scrub-clean.
	rep, err := core.Scrub(ck)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("post-build checkpoint not scrub-clean: %+v", rep)
	}
}

// helperWorkers is a workerCommand that re-executes this test binary into
// TestDistWorkerHelper. env, if set, adds a worker's own environment by id;
// the fault points armed for the calling process are not inherited, so a
// coordinator armed to crash never arms its workers.
func helperWorkers(env func(id string) []string) func(args []string) (*exec.Cmd, error) {
	return func(args []string) (*exec.Cmd, error) {
		id := ""
		for _, a := range args {
			if s, ok := strings.CutPrefix(a, "-dist-worker="); ok {
				id = s
			}
		}
		cmd := exec.Command(os.Args[0], "-test.run", "^TestDistWorkerHelper$")
		for _, kv := range os.Environ() {
			if key, _, _ := strings.Cut(kv, "="); key != faultinject.CrashEnv && key != faultinject.StallEnv &&
				key != "PARAHASH_E2E_HELPER" && key != "PARAHASH_E2E_ARGS" {
				cmd.Env = append(cmd.Env, kv)
			}
		}
		cmd.Env = append(cmd.Env, "PARAHASH_E2E_HELPER=1", "PARAHASH_E2E_ARGS="+strings.Join(args, "\x1f"))
		if env != nil {
			cmd.Env = append(cmd.Env, env(id)...)
		}
		return cmd, nil
	}
}

// TestDistCoordinatorCrashResume kills the -workers coordinator at its own
// crash point, step2.partition:N — fired once per partition its group
// committer claims, after the claiming save — for the first, an early and
// the last partition, then resumes with -resume -workers 2. Every resume
// must be byte-identical to a single-process build and leave no fenced
// ".t<token>" file behind.
func TestDistCoordinatorCrashResume(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec e2e skipped in -short")
	}
	dir := t.TempDir()
	const np = 64
	buildArgs := func(out, ck string, workers int) []string {
		args := []string{"-profile", "tiny", "-partitions", strconv.Itoa(np), "-threads", "1",
			"-checkpoint-dir", ck, "-out", out}
		if workers > 0 {
			args = append(args, "-workers", strconv.Itoa(workers))
		}
		return args
	}
	cleanOut := filepath.Join(dir, "clean.dbg")
	var buf bytes.Buffer
	if err := run(buildArgs(cleanOut, filepath.Join(dir, "ck-clean"), 0), &buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(cleanOut)
	if err != nil {
		t.Fatal(err)
	}

	orig := workerCommand
	defer func() { workerCommand = orig }()
	workerCommand = helperWorkers(nil)
	fenced := regexp.MustCompile(`\.t\d+$`)
	for _, n := range []int{1, 8, np} {
		ck := filepath.Join(dir, fmt.Sprintf("ck%d", n))
		out := filepath.Join(dir, fmt.Sprintf("out%d.dbg", n))
		cmd := exec.Command(os.Args[0], "-test.run", "^TestDistCoordinatorHelper$")
		cmd.Env = append(os.Environ(),
			"PARAHASH_E2E_HELPER=1",
			"PARAHASH_E2E_ARGS="+strings.Join(buildArgs(out, ck, 2), "\x1f"),
			fmt.Sprintf("%s=step2.partition:%d", faultinject.CrashEnv, n))
		cmd.WaitDelay = 10 * time.Second // orphaned workers still hold stderr
		outBytes, err := cmd.CombinedOutput()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != -1 {
			t.Fatalf("step2.partition:%d: the coordinator was not killed by signal: %v\n%s", n, err, outBytes)
		}
		m, err := manifest.Load(filepath.Join(ck, "manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Step2) < n {
			t.Fatalf("step2.partition:%d: the manifest claims %d partitions", n, len(m.Step2))
		}
		t.Logf("step2.partition:%d: killed with %d partitions claimed", n, len(m.Step2))

		buf.Reset()
		if err := run(append(buildArgs(out, ck, 2), "-resume"), &buf); err != nil {
			t.Fatalf("step2.partition:%d: resume: %v\n%s", n, err, buf.String())
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("step2.partition:%d: the resumed graph differs from the single-process build's", n)
		}
		err = filepath.WalkDir(filepath.Join(ck, "data"), func(p string, d fs.DirEntry, err error) error {
			if err == nil && fenced.MatchString(d.Name()) {
				t.Errorf("step2.partition:%d: fenced file %s left behind", n, p)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestDistCoordinatorHelper is the re-exec target of
// TestDistCoordinatorCrashResume: a -workers coordinator whose own workers
// are helper processes too. A no-op in a normal test run.
func TestDistCoordinatorHelper(t *testing.T) {
	if os.Getenv("PARAHASH_E2E_HELPER") != "1" {
		t.Skip("helper for TestDistCoordinatorCrashResume")
	}
	workerCommand = helperWorkers(nil)
	if err := run(strings.Split(os.Getenv("PARAHASH_E2E_ARGS"), "\x1f"), io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestDistWorkerHelper is the re-exec target for TestDistE2E; a no-op in a
// normal test run. It exits the process directly so the test framework's
// "PASS" line never lands on stdout, which is the worker protocol channel.
func TestDistWorkerHelper(t *testing.T) {
	if os.Getenv("PARAHASH_E2E_HELPER") != "1" {
		t.Skip("helper for TestDistE2E")
	}
	args := strings.Split(os.Getenv("PARAHASH_E2E_ARGS"), "\x1f")
	if err := run(args, io.Discard); err != nil {
		os.Stderr.WriteString("parahash worker helper: " + err.Error() + "\n")
		os.Exit(1)
	}
	os.Exit(0)
}
