package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"slices"
	"sort"
)

// spec is BENCHMARK.json: the single list of workloads and metrics. The
// harness takes every unit, direction and bound from it, so the file the
// driver reads and the numbers the harness prints cannot drift apart.
type spec struct {
	RunSeconds int         `json:"run_seconds"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`

	defs map[string]metricDef
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// metricsFor lists the metrics a run of the given mode reports.
func (s *spec) metricsFor(traced bool) []metricDef {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s.defs = map[string]metricDef{}
	for _, list := range [][]metricDef{s.EndToEnd, s.PerLayer} {
		for _, d := range list {
			if _, dup := s.defs[d.Name]; dup || !metricName.MatchString(d.Name) {
				return nil, fmt.Errorf("%s: bad or duplicate metric name %q", path, d.Name)
			}
			s.defs[d.Name] = d
		}
	}
	return &s, nil
}

// recorder collects one workload run's samples, operation counts and spans.
type recorder struct {
	spec     *spec
	workload string
	traced   bool
	seed     int64
	tr       *tracer

	samples   map[string][]float64
	attempted int
	failures  []string
	tainted   []string
}

func newRecorder(sp *spec, workload string, traced bool, seed int64) *recorder {
	return &recorder{
		spec: sp, workload: workload, traced: traced, seed: seed,
		tr:      newTracer(fmt.Sprintf("%s-seed%d", workload, seed)),
		samples: map[string][]float64{},
	}
}

// fastest names the end-to-end timings a run reports as the mean of its
// fastest samples (fastestMean) instead of its median. The program's work
// per repeat is fixed, so on a shared host whatever a repeat takes beyond the
// fastest ones is a neighbour's doing: bursts of it moved the median of a run
// by 30-50 % between runs of one commit, and this statistic by 3-11 %
// (README, "Steadiness"). Memory and set-up time stay medians.
var fastest = map[string]bool{"build_wall_s": true, "build_cpu_s": true, "query_cold_ms": true}

// fastestMean is the mean of the fastest eighth of the samples, at least one
// of them: the minimum of a short run, and less at the mercy of one lucky
// repeat than the minimum of a long one.
func fastestMean(samples []float64) float64 {
	s := slices.Clone(samples)
	slices.Sort(s)
	return mean(s[:(len(s)+7)/8])
}

// add appends one sample of a metric; the reported value is the fastestMean
// of a metric in fastest and the median of any other.
func (r *recorder) add(name string, v float64) {
	if _, ok := r.spec.defs[name]; !ok {
		panic("benchmark: metric " + name + " is not listed in BENCHMARK.json")
	}
	r.samples[name] = append(r.samples[name], v)
}

// set records a single-valued metric.
func (r *recorder) set(name string, v float64) {
	r.samples[name] = nil
	r.add(name, v)
}

// op counts one attempted operation and records why it failed, if it did.
func (r *recorder) op(problem string) {
	r.attempted++
	if problem != "" {
		r.failures = append(r.failures, problem)
	}
}

type metricResult struct {
	Value   float64   `json:"value"` // Stat of the samples
	Stat    string    `json:"stat"`  // "fastest" (fastestMean) or "median"
	Unit    string    `json:"unit"`
	P25     float64   `json:"p25"`
	P75     float64   `json:"p75"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

// spread is the run's own disagreement about Value, as a share of it: the
// interquartile range of a median, and how far the lower quartile lies above
// a fastestMean.
func (m metricResult) spread() float64 {
	if m.Stat == "fastest" {
		return (m.P25 - m.Value) / m.Value
	}
	return (m.P75 - m.P25) / m.Value
}

type workloadResult struct {
	Workload    string                  `json:"workload"`
	Traced      bool                    `json:"traced"`
	Seed        int64                   `json:"seed"`
	Attempted   int                     `json:"attempted"`
	Failed      int                     `json:"failed"`
	FailedShare float64                 `json:"failed_share"`
	Failures    []string                `json:"failures,omitempty"` // first few, for diagnosis
	Error       string                  `json:"error,omitempty"`
	WallCV      float64                 `json:"bench_wall_cv,omitempty"`
	Tainted     []string                `json:"tainted,omitempty"` // reported, never compared
	Metrics     map[string]metricResult `json:"metrics"`
}

// result folds the samples into medians and applies the taint rules.
func (r *recorder) result(e *env, err error) workloadResult {
	wr := workloadResult{
		Workload: r.workload, Traced: r.traced, Seed: r.seed,
		Attempted: r.attempted, Failed: len(r.failures),
		Tainted: r.tainted, Metrics: map[string]metricResult{},
	}
	if err != nil {
		wr.Error = err.Error()
		wr.Attempted++
		wr.Failed++
	}
	if wr.Attempted > 0 {
		wr.FailedShare = float64(wr.Failed) / float64(wr.Attempted)
	}
	wr.Failures = r.failures
	if len(wr.Failures) > 5 {
		wr.Failures = wr.Failures[:5]
	}
	// Every metric of the run's mode is reported by every workload, zero
	// where the workload does not use the layer.
	for _, d := range r.spec.metricsFor(r.traced) {
		if _, ok := r.samples[d.Name]; !ok {
			r.samples[d.Name] = []float64{0}
		}
	}
	for name, s := range r.samples {
		q1, med, q3 := quartiles(s)
		m := metricResult{Value: med, Stat: "median", Unit: r.spec.defs[name].Unit, P25: q1, P75: q3, N: len(s), Samples: s}
		if fastest[name] {
			m.Value, m.Stat = fastestMean(s), "fastest"
		}
		wr.Metrics[name] = m
	}
	if walls := r.samples["build_wall_s"]; len(walls) > 1 {
		wr.WallCV = stddev(walls) / mean(walls)
		// The fastest repeats stand for the run only if others came close
		// to them: a lower quartile further above them than the bound
		// means the run never saw the host quiet for long.
		m := wr.Metrics["build_wall_s"]
		if gap, bound := m.spread(), r.spec.defs["build_wall_s"].Bound; gap > bound {
			wr.Tainted = append(wr.Tainted, fmt.Sprintf("build_wall_s: the lower quartile is %.0f %% above the fastest repeats, more than the bound %.0f %% (bench.wall_cv %.3f)", 100*gap, 100*bound, wr.WallCV))
		}
	}
	if e.nproc < 2 {
		wr.Tainted = append(wr.Tainted, "host_cpus < 2")
	}
	return wr
}

func (wr workloadResult) print(w io.Writer) {
	mode := "end-to-end, tracing off"
	if wr.Traced {
		mode = "traced, per-layer"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d): %d attempted, %d failed\n", wr.Workload, mode, wr.Seed, wr.Attempted, wr.Failed)
	names := make([]string, 0, len(wr.Metrics))
	for n := range wr.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := wr.Metrics[n]
		if m.N > 1 {
			fmt.Fprintf(w, "  %-32s %14.6g %-6s (%s; p25 %.6g, p75 %.6g, n=%d)\n", n, m.Value, m.Unit, m.Stat, m.P25, m.P75, m.N)
		} else {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
		}
	}
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if wr.Error != "" {
		fmt.Fprintf(w, "  ERROR: %s\n", wr.Error)
	}
	for _, t := range wr.Tainted {
		fmt.Fprintf(w, "  TAINTED: %s\n", t)
	}
}

// driverLine renders the one-line JSON object the benchmark driver reads.
func (wr workloadResult) driverLine(sp *spec) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, map[string]value{}}
	for _, d := range sp.metricsFor(wr.Traced) {
		line.Metrics[d.Name] = value{wr.Metrics[d.Name].Value, d.Unit}
	}
	data, err := json.Marshal(line)
	return string(data), err
}

type results struct {
	Stamp     stamp            `json:"stamp"`
	Workloads []workloadResult `json:"workloads"`
}

// quartiles returns the first quartile, median and third quartile with the
// exclusive method of Python's statistics.quantiles(values, n=4), which is
// what the driver computes spreads with.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(q int) float64 {
		pos := float64(q) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func stddev(v []float64) float64 {
	m := mean(v)
	var s float64
	for _, x := range v {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(v)-1))
}
