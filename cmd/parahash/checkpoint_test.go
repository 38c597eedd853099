package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"parahash"
	"parahash/internal/core"
	"parahash/internal/faultinject"
	"parahash/internal/manifest"
)

func TestWriteFileAtomicFailureLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.dbg")
	boom := errors.New("mid-write failure")
	err := writeFileAtomic(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "partial bytes"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	entries, readErr := os.ReadDir(dir)
	if readErr != nil {
		t.Fatal(readErr)
	}
	if len(entries) != 0 {
		t.Fatalf("failed write left files behind: %v", entries)
	}
}

func TestWriteFileAtomicSuccess(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.dbg")
	if err := writeFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "complete")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "complete" {
		t.Fatalf("content = %q", data)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf(".tmp sibling survives success: %v", err)
	}
}

func TestWriteFileAtomicFailurePreservesPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.dbg")
	if err := os.WriteFile(path, []byte("previous good output"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	if err := writeFileAtomic(path, func(w io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "previous good output" {
		t.Fatalf("failed overwrite damaged previous output: %q", data)
	}
}

func TestRunResumeRequiresCheckpointDir(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-profile", "tiny", "-resume"}, &buf); err == nil {
		t.Fatal("-resume without -checkpoint-dir accepted")
	}
}

func TestRunCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	out1 := filepath.Join(dir, "first.dbg")
	out2 := filepath.Join(dir, "second.dbg")
	ck := filepath.Join(dir, "ck")
	base := []string{"-profile", "tiny", "-partitions", "8", "-threads", "4",
		"-checkpoint-dir", ck}

	var buf bytes.Buffer
	if err := run(append(base, "-out", out1), &buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run(append(base, "-out", out2, "-resume"), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "8 partitions resumed, 0 rebuilt") {
		t.Errorf("resume summary missing:\n%s", buf.String())
	}
	a, err := os.ReadFile(out1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("resumed output is not byte-identical to the original")
	}
}

// TestCrashResumeE2E is the end-to-end crash test: a child process (this
// test binary re-executed) is SIGKILLed mid-Step 2 via the env crash point,
// then the build is resumed with -resume and must produce output
// byte-identical to an uninterrupted run.
func TestCrashResumeE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec e2e skipped in -short")
	}
	dir := t.TempDir()
	cleanOut := filepath.Join(dir, "clean.dbg")
	crashOut := filepath.Join(dir, "crash.dbg")
	buildArgs := func(out, ck string) []string {
		return []string{"-profile", "tiny", "-partitions", "8", "-threads", "4",
			"-checkpoint-dir", ck, "-out", out}
	}

	// Reference: uninterrupted checkpointed run.
	var buf bytes.Buffer
	if err := run(buildArgs(cleanOut, filepath.Join(dir, "ck-clean")), &buf); err != nil {
		t.Fatal(err)
	}

	// Crashed run: the child SIGKILLs itself after the save that claims the
	// 5th Step 2 partition (claims are journalled a group at a time, so the
	// manifest then holds at least 5).
	ck := filepath.Join(dir, "ck")
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashResumeHelper$")
	cmd.Env = append(os.Environ(),
		"PARAHASH_E2E_HELPER=1",
		"PARAHASH_E2E_ARGS="+strings.Join(buildArgs(crashOut, ck), "\x1f"),
		faultinject.CrashEnv+"=step2.partition:5")
	outBytes, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("crash-pointed child exited cleanly:\n%s", outBytes)
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != -1 {
		t.Fatalf("child not killed by signal: %v\n%s", err, outBytes)
	}

	// The SIGKILL mid-build must leave no output file (atomic publication)
	// and a manifest claiming at least the 5 partitions journalled by then.
	if _, err := os.Stat(crashOut); !os.IsNotExist(err) {
		t.Fatalf("crashed run left a partial output file: %v", err)
	}
	m, err := manifest.Load(filepath.Join(ck, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	claimed := len(m.Step2)
	if !m.Step1Done || claimed < 5 {
		t.Fatalf("post-crash manifest: step1_done=%v step2=%d, want true/>=5",
			m.Step1Done, claimed)
	}

	// Resume: exactly the claimed partitions are skipped, the rest built, and
	// the final graph is byte-identical to the uninterrupted run.
	buf.Reset()
	if err := run(append(buildArgs(crashOut, ck), "-resume"), &buf); err != nil {
		t.Fatalf("resume failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), fmt.Sprintf("%d partitions resumed, 0 rebuilt", claimed)) {
		t.Errorf("resume summary missing:\n%s", buf.String())
	}
	a, err := os.ReadFile(cleanOut)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(crashOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("resumed output differs from uninterrupted run")
	}
}

// TestCrashResumeHelper is the re-exec target for TestCrashResumeE2E; it is
// a no-op in a normal test run.
func TestCrashResumeHelper(t *testing.T) {
	if os.Getenv("PARAHASH_E2E_HELPER") != "1" {
		t.Skip("helper for TestCrashResumeE2E")
	}
	args := strings.Split(os.Getenv("PARAHASH_E2E_ARGS"), "\x1f")
	if err := run(args, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestScrub(t *testing.T) {
	d, err := parahash.GenerateDataset(parahash.TinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.NumPartitions = 8
	cfg.CPUThreads = 2
	cfg.NumGPUs = 0
	dir := t.TempDir()
	cfg.Checkpoint = core.CheckpointConfig{Dir: dir, InputLabel: "test:tiny"}
	if _, err := core.Build(d.Reads, cfg); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{"scrub", dir}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "checkpoint clean") {
		t.Fatalf("clean checkpoint scrub output:\n%s", out.String())
	}

	// Leftovers alone damage nothing: scrub names each file it sweeps and
	// asks for no rebuild.
	for _, name := range []string{"subgraphs/0002.tmp", "subgraphs/0005.t7"} {
		if err := os.WriteFile(filepath.Join(dir, "data", filepath.FromSlash(name)), []byte("left behind"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out.Reset()
	if err := run([]string{"scrub", dir}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"swept leftover: subgraphs/0002.tmp", "swept leftover: subgraphs/0005.t7", "checkpoint tidied"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("scrub output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "resume with -resume") {
		t.Errorf("a scrub that quarantined nothing asks for a rebuild:\n%s", out.String())
	}

	// Truncate one subgraph; scrub must quarantine it and report repair.
	victim := filepath.Join(dir, "data", "subgraphs", "0003")
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"scrub", dir}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"quarantined: subgraphs/0003", "manifest repaired", "checkpoint repaired"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("scrub output missing %q:\n%s", want, out.String())
		}
	}
}
