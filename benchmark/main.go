// Command benchmark is the one wall-clock benchmark of this repository. It
// compiles the product binaries (parahash, parahashd, dbgtool), drives them
// as subprocesses and over HTTP for the end-to-end metrics, and — in a
// separate traced pass — times calls into each layer's public functions for
// the per-layer metrics. BENCHMARK.json at the repository root names every
// workload and metric; README.md in this directory explains them.
//
//	go run -C benchmark .                         # all workloads, untraced then traced
//	go run -C benchmark . -workload spill -trace 0
//	go run -C benchmark . -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Construction parameters shared by every build workload; the daemon runs on
// its own defaults (K=27, P=11, 64 partitions).
const (
	kmerLen       = 27
	minimizerLen  = 19
	numPartitions = 64
)

var workloadNames = []string{"incore", "spill", "dist", "serve"}

// env is everything one workload run needs.
type env struct {
	root    string // repository root (holds go.mod, cmd/, BENCHMARK.json)
	bin     string // compiled product binaries
	work    string // scratch for generated inputs, checkpoints, daemon data
	out     string // results.json and trace-<workload>.json
	spec    *spec
	seed    int64
	scale   float64
	seconds float64
	repeats int // minimum timed repeats of a build workload
	nproc   int

	compileS float64
}

func main() {
	var (
		root     = flag.String("root", "..", "repository root")
		workload = flag.String("workload", "all", "comma-separated workloads: incore, spill, dist, serve, or all")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds  = flag.Float64("seconds", 0, "measuring time per workload run (0 = run_seconds of BENCHMARK.json)")
		trace    = flag.String("trace", "both", "0 = end-to-end run (tracing off), 1 = traced per-layer run, both = 0 then 1")
		scale    = flag.Float64("scale", 0.2, "input scale: builds use Bumblebee x scale, serve a sparse profile scaled alike")
		repeats  = flag.Int("repeats", 7, "minimum timed repeats of a build workload (more run if -seconds allows)")
		out      = flag.String("out", "", "output directory (default <root>/benchmark/out)")
		compare  = flag.Bool("compare", false, "compare two results.json files given as arguments; exit 1 on any regression")
	)
	flag.Parse()
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fatalf("%v", err)
	}
	sp, err := loadSpec(filepath.Join(absRoot, "BENCHMARK.json"))
	if err != nil {
		fatalf("%v", err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: benchmark -compare A.json B.json")
		}
		os.Exit(runCompare(os.Stdout, sp, flag.Arg(0), flag.Arg(1)))
	}
	e := &env{
		root: absRoot, bin: filepath.Join(absRoot, ".bench_build", "bin"),
		out: *out, spec: sp, seed: *seed, scale: *scale, seconds: *seconds,
		repeats: *repeats, nproc: runtime.NumCPU(),
	}
	if e.out == "" {
		e.out = filepath.Join(absRoot, "benchmark", "out")
	}
	if e.seconds <= 0 {
		e.seconds = float64(sp.RunSeconds)
	}
	names, err := selectWorkloads(*workload)
	if err != nil {
		fatalf("%v", err)
	}
	var modes []bool
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fatalf("-trace must be 0, 1 or both")
	}

	st := newStamp(e)
	if err := e.compile(); err != nil {
		fatalf("compiling product binaries: %v", err)
	}
	e.work, err = os.MkdirTemp(filepath.Join(absRoot, ".bench_build"), "work-")
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(e.out, 0o777); err != nil {
		fatalf("%v", err)
	}

	res := results{Stamp: st, Workloads: e.runAll(names, modes)}
	os.RemoveAll(e.work)
	res.Stamp.End = time.Now().UTC().Format(time.RFC3339)
	if err := writeJSON(filepath.Join(e.out, "results.json"), res); err != nil {
		fatalf("%v", err)
	}
	// The driver reads the last line of standard output: the last run's
	// result, with exactly the metrics BENCHMARK.json lists for its mode.
	last := res.Workloads[len(res.Workloads)-1]
	line, err := last.driverLine(sp)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(line)
	for _, wr := range res.Workloads {
		if wr.Failed > 0 {
			os.Exit(1)
		}
	}
}

// runAll runs the selected workloads in each selected mode — every untraced
// run before any traced one — printing each result as it completes.
func (e *env) runAll(names []string, modes []bool) []workloadResult {
	var all []workloadResult
	for _, traced := range modes {
		for _, name := range names {
			wr := e.runWorkload(name, traced)
			wr.print(os.Stdout)
			all = append(all, wr)
		}
	}
	return all
}

func selectWorkloads(arg string) ([]string, error) {
	if arg == "all" {
		return workloadNames, nil
	}
	var names []string
	for _, n := range strings.Split(arg, ",") {
		ok := false
		for _, w := range workloadNames {
			ok = ok || w == n
		}
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (have %s)", n, strings.Join(workloadNames, ", "))
		}
		names = append(names, n)
	}
	return names, nil
}

// compile builds the product binaries from the checkout's source. Compile
// time is reported as bench.compile_s and excluded from setup_s.
func (e *env) compile() error {
	if err := os.MkdirAll(e.bin, 0o777); err != nil {
		return err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", e.bin+string(os.PathSeparator),
		"./cmd/parahash", "./cmd/parahashd", "./cmd/dbgtool")
	cmd.Dir = e.root
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return err
	}
	e.compileS = time.Since(start).Seconds()
	return nil
}

// runWorkload runs one workload in one mode and never panics the whole
// benchmark on a workload error: the error is recorded and fails the run.
func (e *env) runWorkload(name string, traced bool) workloadResult {
	r := newRecorder(e.spec, name, traced, e.seed)
	dir, err := os.MkdirTemp(e.work, name+"-")
	if err == nil {
		if name == "serve" {
			err = e.runServe(r, dir)
		} else {
			err = e.runBuild(r, name, dir)
		}
		os.RemoveAll(dir)
	}
	if err == nil && traced {
		r.set("bench.compile_s", e.compileS)
		err = r.tr.writeChrome(filepath.Join(e.out, "trace-"+name+".json"))
	}
	return r.result(e, err)
}

// stamp identifies the code, host and settings behind a results file.
type stamp struct {
	Commit          string  `json:"commit"`
	CommitTimestamp string  `json:"commit_timestamp"`
	Start           string  `json:"start"`
	End             string  `json:"end"`
	GoVersion       string  `json:"go_version"`
	HostCPUs        int     `json:"host_cpus"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	LoadAvgAtStart  string  `json:"load_average_at_start"`
	Seed            int64   `json:"seed"`
	Scale           float64 `json:"scale"`
	Seconds         float64 `json:"seconds"`
	Repeats         int     `json:"repeats"`
}

func newStamp(e *env) stamp {
	git := func(args ...string) string {
		cmd := exec.Command("git", args...)
		cmd.Dir = e.root
		out, err := cmd.Output()
		if err != nil {
			return "unknown" // a driver checkout is not a git repository
		}
		return strings.TrimSpace(string(out))
	}
	load, _ := os.ReadFile("/proc/loadavg")
	return stamp{
		Commit:          git("rev-parse", "HEAD"),
		CommitTimestamp: git("log", "-1", "--format=%cI"),
		Start:           time.Now().UTC().Format(time.RFC3339),
		GoVersion:       runtime.Version(),
		HostCPUs:        runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		LoadAvgAtStart:  strings.TrimSpace(string(load)),
		Seed:            e.seed, Scale: e.scale, Seconds: e.seconds, Repeats: e.repeats,
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
