package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// runCompare prints one row per workload and end-to-end metric of two
// results files (A = base, B = candidate) and returns the exit code: 1 if
// any metric regressed by more than its bound. A metric whose spread within
// either run (metricResult.spread) exceeds its bound is unresolved, not
// unchanged, unless every sample of one side beats every sample of the
// other. Tainted workloads are listed and never compared.
func runCompare(w io.Writer, sp *spec, pathA, pathB string) int {
	a, errA := readResults(pathA)
	b, errB := readResults(pathB)
	if errA != nil || errB != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -compare:", errA, errB)
		return 2
	}
	fmt.Fprintf(w, "A: %s  commit %s  %s\nB: %s  commit %s  %s\n", pathA, a.Stamp.Commit, a.Stamp.Start, pathB, b.Stamp.Commit, b.Stamp.Start)
	fmt.Fprintf(w, "%-8s %-18s %12s %-22s %12s %-22s %9s %6s  %s\n",
		"workload", "metric", "A value", "A [p25, p75]", "B value", "B [p25, p75]", "delta", "bound", "verdict")
	code := 0
	for _, wa := range a.Workloads {
		wb := b.find(wa.Workload)
		if wa.Traced || wb == nil {
			continue
		}
		if len(wa.Tainted)+len(wb.Tainted) > 0 {
			fmt.Fprintf(w, "%-8s tainted, not compared: %v %v\n", wa.Workload, wa.Tainted, wb.Tainted)
			continue
		}
		if wb.Failed > wa.Failed {
			fmt.Fprintf(w, "%-8s %-18s %12d %-22s %12d %-22s %9s %6s  regressed\n", wa.Workload, "failed", wa.Failed, "", wb.Failed, "", "", "0")
			code = 1
		}
		for _, d := range sp.EndToEnd {
			ma, mb := wa.Metrics[d.Name], wb.Metrics[d.Name]
			// delta > 0 means B is worse, as a share of A's value (the
			// fastestMean or the median, whichever the metric reports).
			delta := (mb.Value - ma.Value) / ma.Value
			if d.Better == "higher" {
				delta = -delta
			}
			verdict := "unchanged"
			spread := max(ma.spread(), mb.spread())
			switch {
			case spread > d.Bound && !disjoint(ma.Samples, mb.Samples):
				verdict = "unresolved"
			case delta > d.Bound:
				verdict = "regressed"
				code = 1
			case delta < -d.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-8s %-18s %12.5g %-22s %12.5g %-22s %+8.1f%% %5.0f%%  %s\n",
				wa.Workload, d.Name, ma.Value, fmt.Sprintf("[%.5g, %.5g]", ma.P25, ma.P75),
				mb.Value, fmt.Sprintf("[%.5g, %.5g]", mb.P25, mb.P75), 100*delta, 100*d.Bound, verdict)
		}
	}
	return code
}

// disjoint reports whether every sample of one side lies beyond every sample
// of the other.
func disjoint(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	minA, maxA := a[0], a[0]
	for _, v := range a {
		minA, maxA = min(minA, v), max(maxA, v)
	}
	minB, maxB := b[0], b[0]
	for _, v := range b {
		minB, maxB = min(minB, v), max(maxB, v)
	}
	return maxA < minB || maxB < minA
}

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func (r *results) find(workload string) *workloadResult {
	for i := range r.Workloads {
		if wl := &r.Workloads[i]; wl.Workload == workload && !wl.Traced {
			return wl
		}
	}
	return nil
}
