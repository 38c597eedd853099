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
	"time"

	"parahash"
	"parahash/internal/faultinject"
	"parahash/internal/manifest"
)

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"1024", 1024, true},
		{"1K", 1 << 10, true},
		{"512M", 512 << 20, true},
		{"2G", 2 << 30, true},
		{"1T", 1 << 40, true},
		{"512MB", 512 << 20, true},
		{"512MiB", 512 << 20, true},
		{"512mib", 512 << 20, true},
		{" 2G ", 2 << 30, true},
		{"0", 0, false},
		{"-5M", 0, false},
		{"", 0, false},
		{"abc", 0, false},
		{"12Q", 0, false},
		{"9999999999G", 0, false}, // overflow
	}
	for _, c := range cases {
		got, err := parseBytes(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("parseBytes(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("parseBytes(%q) = %d, want error", c.in, got)
		}
	}
}

func TestRemoveOrphanTmpCleansOnlyTmpSiblings(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "g.dbg")
	keep := filepath.Join(dir, "keep.dbg")
	for _, p := range []string{out + ".tmp", keep} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	removeOrphanTmp(&buf, out, filepath.Join(dir, "absent.json"), "")
	if _, err := os.Stat(out + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("orphaned tmp survives: %v", err)
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("unrelated file removed: %v", err)
	}
	if !strings.Contains(buf.String(), "removed orphaned") {
		t.Errorf("cleanup not reported:\n%s", buf.String())
	}
}

func TestRunTimeoutReturnsErrCanceled(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-profile", "tiny", "-partitions", "8", "-threads", "4",
		"-timeout", "1ns"}, &buf)
	if !errors.Is(err, parahash.ErrCanceled) {
		t.Fatalf("timed-out run returned %v, want ErrCanceled", err)
	}
	if !strings.Contains(err.Error(), "-timeout") {
		t.Errorf("timeout cause missing from error: %v", err)
	}
}

func TestRunMemBudgetFlag(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-profile", "tiny", "-partitions", "8", "-threads", "4",
		"-mem-budget", "1M"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "memory budget: 1.0 MB") {
		t.Errorf("budget summary missing:\n%s", buf.String())
	}
	if err := run([]string{"-profile", "tiny", "-mem-budget", "nonsense"}, &buf); err == nil {
		t.Fatal("bad -mem-budget accepted")
	}
}

// TestSigintResumeE2E is the graceful-shutdown end-to-end test: a child
// process (this test binary re-executed) wedges mid-Step 2 on the armed
// stall point with at least three partitions journalled, receives SIGINT, and must
// exit 130 with the checkpoint intact and no tmp litter; resuming with
// -resume must then produce output byte-identical to an uninterrupted run.
func TestSigintResumeE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec e2e skipped in -short")
	}
	dir := t.TempDir()
	cleanOut := filepath.Join(dir, "clean.dbg")
	intOut := filepath.Join(dir, "interrupted.dbg")
	buildArgs := func(out, ck string) []string {
		return []string{"-profile", "tiny", "-partitions", "8", "-threads", "4",
			"-checkpoint-dir", ck, "-out", out}
	}

	// Reference: uninterrupted checkpointed run.
	var buf bytes.Buffer
	if err := run(buildArgs(cleanOut, filepath.Join(dir, "ck-clean")), &buf); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: the child stalls after the save that claims the 3rd
	// Step 2 partition; we SIGINT it there.
	ck := filepath.Join(dir, "ck")
	cmd := exec.Command(os.Args[0], "-test.run", "^TestSigintResumeHelper$")
	var childOut bytes.Buffer
	cmd.Stdout = &childOut
	cmd.Stderr = &childOut
	cmd.Env = append(os.Environ(),
		"PARAHASH_E2E_HELPER=1",
		"PARAHASH_E2E_ARGS="+strings.Join(buildArgs(intOut, ck), "\x1f"),
		faultinject.StallEnv+"=step2.partition:3")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	mpath := filepath.Join(ck, "manifest.json")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if m, err := manifest.Load(mpath); err == nil && len(m.Step2) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("child never journalled 3 Step 2 partitions:\n%s", childOut.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}

	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	var err error
	select {
	case err = <-waitErr:
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("child did not exit within the grace period after SIGINT:\n%s", childOut.String())
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 130 {
		t.Fatalf("child exit = %v, want status 130 (graceful SIGINT):\n%s", err, childOut.String())
	}

	// Graceful shutdown contract: no output file, no tmp litter, and a
	// manifest claiming at least the 3 partitions journalled by then.
	for _, p := range []string{intOut, intOut + ".tmp"} {
		if _, serr := os.Stat(p); !os.IsNotExist(serr) {
			t.Fatalf("interrupted run left %s behind: %v", p, serr)
		}
	}
	m, err := manifest.Load(mpath)
	if err != nil {
		t.Fatal(err)
	}
	claimed := len(m.Step2)
	if !m.Step1Done || claimed < 3 {
		t.Fatalf("post-SIGINT manifest: step1_done=%v step2=%d, want true/>=3",
			m.Step1Done, claimed)
	}

	// Resume: exactly the journalled partitions are adopted and the final graph is
	// byte-identical to the uninterrupted run.
	buf.Reset()
	if err := run(append(buildArgs(intOut, ck), "-resume"), &buf); err != nil {
		t.Fatalf("resume failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), fmt.Sprintf("%d partitions resumed, 0 rebuilt", claimed)) {
		t.Errorf("resume summary missing:\n%s", buf.String())
	}
	a, err := os.ReadFile(cleanOut)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(intOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("resumed output differs from uninterrupted run")
	}
}

// TestSigintResumeHelper is the re-exec target for TestSigintResumeE2E; it
// mirrors main()'s exit discipline (130 on cancellation) and is a no-op in
// a normal test run.
func TestSigintResumeHelper(t *testing.T) {
	if os.Getenv("PARAHASH_E2E_HELPER") != "1" {
		t.Skip("helper for TestSigintResumeE2E")
	}
	args := strings.Split(os.Getenv("PARAHASH_E2E_ARGS"), "\x1f")
	if err := run(args, io.Discard); err != nil {
		if errors.Is(err, parahash.ErrCanceled) {
			os.Exit(130)
		}
		t.Fatal(err)
	}
}
