package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 3

// coldLookups is how many `dbgtool lookup` processes follow each timed build.
const coldLookups = 3

// spillBudget is the spill workload's per-partition memory budget in bytes.
// It shrinks with the input so that every partition spills at any scale
// (1 MiB at scale 0.5, as in ISSUE.md's sizing); the floor keeps the run
// count of a smoke-test input from growing.
func spillBudget(scale float64) int64 {
	return max(int64(float64(2<<20)*scale), 128<<10)
}

// cliArgs is the parahash command line of a build workload.
func (e *env) cliArgs(kind, in, ckDir, out string) []string {
	args := []string{"-in", in, "-k", strconv.Itoa(kmerLen), "-p", strconv.Itoa(minimizerLen),
		"-partitions", strconv.Itoa(numPartitions), "-checkpoint-dir", ckDir, "-out", out}
	switch kind {
	case "incore":
		args = append(args, "-threads", strconv.Itoa(e.nproc))
	case "spill":
		args = append(args, "-threads", strconv.Itoa(e.nproc),
			"-partition-mem-budget", strconv.FormatInt(spillBudget(e.scale), 10))
	case "dist":
		args = append(args, "-threads", "1", "-workers", strconv.Itoa(e.nproc))
	}
	return args
}

// usage is what wait4 reports for a finished process tree.
type usage struct {
	wall   time.Duration
	cpu    time.Duration
	rssMB  float64
	stdout []byte
}

// runTimed runs a binary to completion, timing from process start to exit.
func runTimed(bin string, args ...string) (usage, error) {
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	u := usage{wall: time.Since(start), stdout: stdout.Bytes()}
	if err != nil {
		return u, fmt.Errorf("%s: %w: %s", filepath.Base(bin), err, bytes.TrimSpace(stderr.Bytes()))
	}
	u.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.rssMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return u, nil
}

// runBuild is the incore, spill and dist workloads: the parahash CLI building
// the Bumblebee input, then dbgtool answering coldLookups lookups from the
// published file, one process each. A traced run replaces the timed repeats with the per-layer pass.
func (e *env) runBuild(r *recorder, kind, dir string) error {
	var in *input
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		var err error
		if in, err = makeInput(bumblebee(e.scale, e.seed), filepath.Join(dir, "reads.fq")); err != nil {
			return err
		}
		r.add("setup_s", time.Since(start).Seconds())
	}
	if r.traced {
		return e.traceBuild(r, kind, dir, in)
	}

	// One discarded warm-up, then timed repeats until both the minimum
	// count and the measuring time are reached. Checks and clean-up sit
	// outside the timed regions.
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for i := -1; i < e.repeats || time.Now().Before(deadline); i++ {
		ck, out := filepath.Join(dir, "ck"), filepath.Join(dir, "g.dbg")
		u, err := runTimed(filepath.Join(e.bin, "parahash"), e.cliArgs(kind, in.path, ck, out)...)
		problem := ""
		if err != nil {
			problem = err.Error()
		} else {
			problem = checkBuild(r, in, u.stdout, ck, out)
		}
		var cold [coldLookups]time.Duration
		for c := 0; c < coldLookups && problem == ""; c++ {
			cold[c], problem = e.coldLookup(in, out, i*coldLookups+c)
		}
		os.RemoveAll(ck)
		os.Remove(out)
		if i < 0 && problem == "" {
			deadline = time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
			continue
		}
		r.op(problem)
		if problem == "" {
			r.add("build_wall_s", u.wall.Seconds())
			r.add("build_cpu_s", u.cpu.Seconds())
			r.add("build_peak_rss_mb", u.rssMB)
			for _, c := range cold {
				r.add("query_cold_ms", float64(c.Nanoseconds())/1e6)
			}
		}
	}
	return nil
}

var (
	distinctLine = regexp.MustCompile(`distinct vertices:\s+(\d+)`)
	distLine     = regexp.MustCompile(`(\d+) expired, (\d+) partitions reassigned`)
	fencedName   = regexp.MustCompile(`\.t\d+$`)
)

// checkBuild verifies one CLI build outside the timed region: the published
// graph is the oracle's byte for byte, the CLI's reported vertex count is the
// graph's, and the checkpoint holds no temporary or fenced leftovers.
func checkBuild(r *recorder, in *input, stdout []byte, ck, out string) string {
	sum, _, err := shaOfFile(out)
	if err != nil {
		return err.Error()
	}
	if sum != in.oracleSHA {
		return fmt.Sprintf("graph SHA-256 %x differs from the oracle's %x", sum[:6], in.oracleSHA[:6])
	}
	m := distinctLine.FindSubmatch(stdout)
	if m == nil || string(m[1]) != strconv.Itoa(in.vertices) {
		return fmt.Sprintf("CLI reported distinct vertices %q, the graph has %d", m, in.vertices)
	}
	if m := distLine.FindSubmatch(stdout); m != nil && (string(m[1]) != "0" || string(m[2]) != "0") {
		r.tainted = append(r.tainted, fmt.Sprintf("dist: %s lease expiries, %s reassignments in a fault-free run", m[1], m[2]))
	}
	if _, err := os.Stat(out + ".tmp"); err == nil {
		return "leftover " + out + ".tmp"
	}
	litter := ""
	filepath.WalkDir(ck, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && (filepath.Ext(path) == ".tmp" || fencedName.MatchString(path)) {
			litter = "leftover " + path
		}
		return nil
	})
	return litter
}

var lookupLine = regexp.MustCompile(`occurrences ~(\d+), degree (\d+)`)

// coldLookup times `dbgtool lookup` on the published graph — the first
// answer a CLI user gets from a graph no process has resident — and checks
// it against the oracle. Lookups alternate present and absent k-mers.
func (e *env) coldLookup(in *input, graph string, i int) (time.Duration, string) {
	q := in.queries[(i+coldLookups*len(in.queries))%len(in.queries)]
	u, err := runTimed(filepath.Join(e.bin, "dbgtool"), "lookup", graph, q.kmer)
	if err != nil {
		return 0, err.Error()
	}
	m := lookupLine.FindSubmatch(u.stdout)
	switch {
	case !q.present && bytes.Contains(u.stdout, []byte("not in graph")):
	case q.present && m != nil && string(m[1]) == strconv.Itoa(q.occurrences) && string(m[2]) == strconv.Itoa(q.degree):
	default:
		return 0, fmt.Sprintf("dbgtool lookup %s answered %q, oracle says %+v", q.kmer, bytes.TrimSpace(u.stdout), q)
	}
	return u.wall, ""
}
