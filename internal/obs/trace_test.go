package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"parahash/internal/pipeline"
)

// sampleTrace builds a trace with both clocks and both steps, anchored at a
// fixed epoch so the wall spans are deterministic.
func sampleTrace() *Trace {
	epoch := time.Date(2025, 1, 2, 3, 4, 5, 0, time.UTC)
	tr := NewTraceAt(epoch)

	// Wall-clock spans as a live pipeline run would record them via
	// StepTracer: read/compute/write for two partitions of step1.
	st := &StepTracer{T: tr, Step: "step1", Workers: []string{"CPU", "GPU0"}}
	at := func(ms int) time.Time { return epoch.Add(time.Duration(ms) * time.Millisecond) }
	st.StageSpan(pipeline.StageRead, 0, -1, at(0), at(10))
	st.StageSpan(pipeline.StageCompute, 0, 0, at(10), at(50))
	st.StageSpan(pipeline.StageWrite, 0, -1, at(50), at(55))
	st.StageSpan(pipeline.StageRead, 1, -1, at(10), at(20))
	st.StageSpan(pipeline.StageCompute, 1, 1, at(20), at(45))
	st.StageSpan(pipeline.StageWrite, 1, -1, at(55), at(60))

	// Virtual-time spans replayed from a schedule for step2.
	TraceSchedule(tr, "step2", []string{"CPU", "GPU0"}, pipeline.Schedule{
		Assignment:   []int{0, 1},
		InputStart:   []float64{0, 0.1},
		InputEnd:     []float64{0.1, 0.2},
		ComputeStart: []float64{0.1, 0.2},
		ComputeEnd:   []float64{0.6, 0.5},
		OutputStart:  []float64{0.6, 0.7},
		OutputEnd:    []float64{0.7, 0.8},
	})
	return tr
}

func TestWriteChromeJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace.golden.json", buf.Bytes())
}

func TestWriteChromeJSONStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
			Args struct {
				Name  string `json:"name"`
				Stage string `json:"stage"`
				Clock string `json:"clock"`
			} `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if decoded.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", decoded.DisplayTimeUnit)
	}
	var wallProcs, virtProcs, complete, meta int
	stages := map[string]int{}
	for _, e := range decoded.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
			if e.Name == "process_name" {
				switch e.Args.Name {
				case "wall-clock":
					wallProcs++
				case "virtual-time":
					virtProcs++
				}
			}
		case "X":
			complete++
			stages[e.Args.Stage]++
			if e.Ts < 0 {
				t.Errorf("event %q has negative timestamp", e.Name)
			}
		default:
			t.Errorf("unexpected event phase %q", e.Ph)
		}
	}
	if wallProcs != 1 || virtProcs != 1 {
		t.Errorf("process rows: wall=%d virtual=%d, want 1 each", wallProcs, virtProcs)
	}
	// 2 partitions × 3 stages × 2 clocks.
	if complete != 12 {
		t.Errorf("complete events = %d, want 12", complete)
	}
	for _, stage := range []string{pipeline.StageRead, pipeline.StageCompute, pipeline.StageWrite} {
		if stages[stage] != 4 {
			t.Errorf("stage %s events = %d, want 4", stage, stages[stage])
		}
	}
}

func TestTraceConcurrentRecording(t *testing.T) {
	tr := NewTrace()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				tr.RecordVirtual("step1", pipeline.StageCompute, i, g, "CPU", float64(i), float64(i+1))
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if got := len(tr.Spans()); got != 400 {
		t.Errorf("recorded %d spans, want 400", got)
	}
}

func TestTraceScheduleAttribution(t *testing.T) {
	tr := NewTraceAt(time.Unix(0, 0))
	TraceSchedule(tr, "step1", []string{"CPU", "GPU0"}, pipeline.Schedule{
		Assignment:   []int{1},
		InputStart:   []float64{0},
		InputEnd:     []float64{1},
		ComputeStart: []float64{1},
		ComputeEnd:   []float64{2},
		OutputStart:  []float64{2},
		OutputEnd:    []float64{3},
	})
	for _, s := range tr.Spans() {
		if s.Clock != ClockVirtual {
			t.Errorf("schedule span clock = %q", s.Clock)
		}
		if s.Stage == pipeline.StageCompute && s.WorkerName != "GPU0" {
			t.Errorf("compute span attributed to %q, want GPU0", s.WorkerName)
		}
	}
}

// TestWriteChromeJSONOverlappingSpansGetRows records a worker running two
// partitions at once: its overlapping compute spans go on two rows, named
// apart, with no two spans of one row overlapping, and a span that starts
// when another ends reuses that one's row.
func TestWriteChromeJSONOverlappingSpansGetRows(t *testing.T) {
	epoch := time.Date(2025, 1, 2, 3, 4, 5, 0, time.UTC)
	tr := NewTraceAt(epoch)
	st := &StepTracer{T: tr, Step: "step2", Workers: []string{"CPU"}}
	at := func(ms int) time.Time { return epoch.Add(time.Duration(ms) * time.Millisecond) }
	st.StageSpan(pipeline.StageCompute, 0, 0, at(0), at(50))
	st.StageSpan(pipeline.StageCompute, 1, 0, at(10), at(40))
	st.StageSpan(pipeline.StageCompute, 2, 0, at(50), at(60))
	st.StageSpan(pipeline.StageCompute, 3, 0, at(45), at(70))
	st.StageSpan(pipeline.StageWrite, 0, -1, at(50), at(55))

	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
			Args struct {
				Name      string `json:"name"`
				Partition *int   `json:"partition"`
				Stage     string `json:"stage"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	tidOf := map[int]int{}
	rowName := map[int]string{}
	type span struct{ start, end float64 }
	byTid := map[int][]span{}
	for _, e := range decoded.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "thread_name":
			rowName[e.Tid] = e.Args.Name
		case e.Ph == "X" && e.Args.Stage == pipeline.StageCompute:
			tidOf[*e.Args.Partition] = e.Tid
			byTid[e.Tid] = append(byTid[e.Tid], span{e.Ts, e.Ts + e.Dur})
		}
	}
	if tidOf[0] != tidOf[2] || tidOf[1] != tidOf[3] || tidOf[0] == tidOf[1] {
		t.Fatalf("compute rows by partition %v, want partitions 0 and 2 on one row, 1 and 3 on another", tidOf)
	}
	if rowName[tidOf[0]] != "step2 CPU" || rowName[tidOf[1]] != "step2 CPU #2" {
		t.Fatalf("rows named %q and %q", rowName[tidOf[0]], rowName[tidOf[1]])
	}
	for tid, spans := range byTid {
		for i := range spans {
			for j := range spans {
				if i != j && spans[i].start < spans[j].end && spans[j].start < spans[i].end {
					t.Fatalf("row %d holds overlapping spans %v and %v", tid, spans[i], spans[j])
				}
			}
		}
	}
}
