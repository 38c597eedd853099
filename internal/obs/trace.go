package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"parahash/internal/pipeline"
)

// Clock discriminates the two time bases a trace records: wall-clock spans
// measured from the live pipeline, and virtual-time spans replayed from the
// deterministic schedule. The Chrome export puts each on its own process
// row so Perfetto shows them side by side.
const (
	ClockWall    = "wall"
	ClockVirtual = "virtual"
)

// Span is one traced stage interval of one partition.
type Span struct {
	// Step names the pipeline step ("step1", "step2").
	Step string
	// Stage is pipeline.StageRead, StageCompute or StageWrite.
	Stage string
	// Partition is the partition (or input chunk) index.
	Partition int
	// Worker is the stage-2 worker index, -1 for the IO stages.
	Worker int
	// WorkerName is the processor name for compute spans ("CPU", "GPU0").
	WorkerName string
	// Start and End are seconds: since the trace epoch for wall spans,
	// since virtual time zero for virtual spans.
	Start, End float64
	// Clock is ClockWall or ClockVirtual.
	Clock string
}

// Trace collects stage spans from any number of goroutines. The zero value
// is not usable; construct with NewTrace.
type Trace struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewTrace returns a Trace whose wall-clock epoch is now.
func NewTrace() *Trace { return NewTraceAt(time.Now()) }

// NewTraceAt returns a Trace with a fixed wall-clock epoch, for
// deterministic tests.
func NewTraceAt(epoch time.Time) *Trace { return &Trace{epoch: epoch} }

// RecordWall adds a wall-clock span measured with real timestamps.
func (t *Trace) RecordWall(step, stage string, partition, worker int, workerName string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{
		Step: step, Stage: stage, Partition: partition,
		Worker: worker, WorkerName: workerName,
		Start: start.Sub(t.epoch).Seconds(), End: end.Sub(t.epoch).Seconds(),
		Clock: ClockWall,
	})
}

// RecordVirtual adds a virtual-time span in schedule seconds.
func (t *Trace) RecordVirtual(step, stage string, partition, worker int, workerName string, start, end float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{
		Step: step, Stage: stage, Partition: partition,
		Worker: worker, WorkerName: workerName,
		Start: start, End: end, Clock: ClockVirtual,
	})
}

// Spans returns a copy of the recorded spans.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// StepTracer binds a Trace to one named step and a processor-name list; it
// satisfies the pipeline package's SpanRecorder interface, so one Trace can
// watch both pipeline steps.
type StepTracer struct {
	T *Trace
	// Step labels the spans ("step1", "step2").
	Step string
	// Workers maps worker index to processor name for attribution.
	Workers []string
}

// StageSpan implements pipeline.SpanRecorder.
func (s *StepTracer) StageSpan(stage string, partition, worker int, start, end time.Time) {
	name := ""
	if worker >= 0 && worker < len(s.Workers) {
		name = s.Workers[worker]
	}
	s.T.RecordWall(s.Step, stage, partition, worker, name, start, end)
}

var _ pipeline.SpanRecorder = (*StepTracer)(nil)

// TraceSchedule replays a virtual-time schedule into the trace: one read,
// one compute (attributed to the consuming processor) and one write span
// per partition, in schedule seconds. This is the Fig. 11/12 pipelining
// picture, inspectable in Perfetto.
func TraceSchedule(t *Trace, step string, workers []string, sched pipeline.Schedule) {
	name := func(w int) string {
		if w >= 0 && w < len(workers) {
			return workers[w]
		}
		return ""
	}
	for i := range sched.Assignment {
		t.RecordVirtual(step, pipeline.StageRead, i, -1, "", sched.InputStart[i], sched.InputEnd[i])
		w := sched.Assignment[i]
		t.RecordVirtual(step, pipeline.StageCompute, i, w, name(w), sched.ComputeStart[i], sched.ComputeEnd[i])
		t.RecordVirtual(step, pipeline.StageWrite, i, -1, "", sched.OutputStart[i], sched.OutputEnd[i])
	}
}

// Chrome trace-event JSON (the "JSON Array Format" both chrome://tracing
// and Perfetto load). Spans become complete ("X") events; process and
// thread rows are named with metadata ("M") events. Timestamps are in
// microseconds.

type chromeArgs struct {
	// Name is set on thread_name/process_name metadata events only.
	Name string `json:"name,omitempty"`
	// Stage/Worker/Clock annotate span events. Partition is a pointer so
	// partition 0 still serialises while metadata events omit it.
	Partition *int   `json:"partition,omitempty"`
	Stage     string `json:"stage,omitempty"`
	Worker    string `json:"worker,omitempty"`
	Clock     string `json:"clock,omitempty"`
}

type chromeEvent struct {
	Name string     `json:"name"`
	Cat  string     `json:"cat,omitempty"`
	Ph   string     `json:"ph"`
	Ts   float64    `json:"ts"`
	Dur  *float64   `json:"dur,omitempty"`
	Pid  int        `json:"pid"`
	Tid  int        `json:"tid"`
	Args chromeArgs `json:"args"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Process ids of the two clocks in the exported trace.
const (
	pidWall    = 1
	pidVirtual = 2
)

// laneOf maps a span to its thread lane within a step: read and write are
// the sequential IO stages (lanes 0 and 1), each worker gets its own lane.
func laneOf(s Span) int {
	switch s.Stage {
	case pipeline.StageRead:
		return 0
	case pipeline.StageWrite:
		return 1
	default:
		if s.Worker < 0 {
			return 2
		}
		return 2 + s.Worker
	}
}

// rowStride separates the rows of one lane (laneOf) within a step's block of
// thread ids: row r of a lane is lane + r*rowStride. A lane needs a second row
// only where one worker runs several attempts at once, so rows stay far below
// the 1000/rowStride a step's block has room for.
const rowStride = 100

// rowsOf assigns each span a row within its lane, so that spans on one row
// never overlap: a worker running two partitions at once gets two rows, side
// by side, instead of one row of intervals stacked out of order. Rows are
// assigned greedily in start order (ties by partition), the lowest free row
// first, so the assignment is a function of the spans alone.
func rowsOf[K comparable](spans []Span, laneKey func(Span) K) []int {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.Partition < y.Partition
	})
	rows := make([]int, len(spans))
	ends := map[K][]float64{} // per lane, the end of each row's last span
	for _, i := range order {
		key := laneKey(spans[i])
		r := 0
		for r < len(ends[key]) && ends[key][r] > spans[i].Start {
			r++
		}
		if r == len(ends[key]) {
			ends[key] = append(ends[key], 0)
		}
		ends[key][r] = spans[i].End
		rows[i] = r
	}
	return rows
}

// WriteChromeJSON exports the trace as Chrome trace-event JSON. Events are
// emitted in a deterministic order (metadata first, then spans sorted by
// process, thread and start time) so the output is golden-testable. Spans of
// one lane that overlap in time — the partitions a worker runs at once — go
// on rows of their own (rowsOf).
func (t *Trace) WriteChromeJSON(w io.Writer) error {
	spans := t.Spans()

	// Assign thread ids: each (step, lane) pair gets a block of lanes under
	// its step, steps ordered by name.
	stepSet := map[string]bool{}
	for _, s := range spans {
		stepSet[s.Step] = true
	}
	steps := make([]string, 0, len(stepSet))
	for s := range stepSet {
		steps = append(steps, s)
	}
	sort.Strings(steps)
	stepBase := map[string]int{}
	for i, s := range steps {
		stepBase[s] = 1000 * i
	}
	pidOf := func(s Span) int {
		if s.Clock == ClockVirtual {
			return pidVirtual
		}
		return pidWall
	}
	type laneID struct {
		pid, lane int
		step      string
	}
	spanRows := rowsOf(spans, func(s Span) laneID { return laneID{pidOf(s), laneOf(s), s.Step} })
	type placed struct {
		Span
		row, tid int
	}
	ps := make([]placed, len(spans))
	for i, s := range spans {
		ps[i] = placed{s, spanRows[i], stepBase[s.Step] + laneOf(s) + spanRows[i]*rowStride}
	}

	var events []chromeEvent

	// Process metadata: one row per clock present.
	pids := map[int]string{}
	for _, s := range spans {
		if s.Clock == ClockVirtual {
			pids[pidVirtual] = "virtual-time"
		} else {
			pids[pidWall] = "wall-clock"
		}
	}
	for _, pid := range []int{pidWall, pidVirtual} {
		if name, ok := pids[pid]; ok {
			events = append(events, chromeEvent{
				Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
				Args: chromeArgs{Name: name},
			})
		}
	}

	// Thread metadata: name each (pid, tid) row after its step and lane.
	type row struct{ pid, tid int }
	rowNames := map[row]string{}
	for _, s := range ps {
		r := row{pidOf(s.Span), s.tid}
		if _, ok := rowNames[r]; ok {
			continue
		}
		var lane string
		switch s.Stage {
		case pipeline.StageRead:
			lane = "read"
		case pipeline.StageWrite:
			lane = "write"
		default:
			lane = s.WorkerName
			if lane == "" {
				lane = fmt.Sprintf("worker%d", s.Worker)
			}
		}
		if s.row > 0 {
			lane += fmt.Sprintf(" #%d", s.row+1)
		}
		rowNames[r] = s.Step + " " + lane
	}
	rows := make([]row, 0, len(rowNames))
	for r := range rowNames {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].pid != rows[j].pid {
			return rows[i].pid < rows[j].pid
		}
		return rows[i].tid < rows[j].tid
	})
	for _, r := range rows {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: r.pid, Tid: r.tid,
			Args: chromeArgs{Name: rowNames[r]},
		})
	}

	// Span events, deterministically ordered.
	sort.SliceStable(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		if pidOf(a.Span) != pidOf(b.Span) {
			return pidOf(a.Span) < pidOf(b.Span)
		}
		if a.tid != b.tid {
			return a.tid < b.tid
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Partition < b.Partition
	})
	for _, p := range ps {
		s := p.Span
		dur := (s.End - s.Start) * 1e6
		if dur < 0 {
			dur = 0
		}
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("%s p%d", s.Stage, s.Partition),
			Cat:  s.Step,
			Ph:   "X",
			Ts:   s.Start * 1e6,
			Dur:  &dur,
			Pid:  pidOf(s),
			Tid:  p.tid,
			Args: chromeArgs{
				Partition: &s.Partition,
				Stage:     s.Stage,
				Worker:    s.WorkerName,
				Clock:     s.Clock,
			},
		})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}
