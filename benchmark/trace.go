package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one workload run
// share the tracer's trace id; Parent is the id of the span that caused this
// one (0 = none).
type span struct {
	ID     int
	Parent int
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
}

// tracer keeps spans in memory; they are written out once, at the end of the
// run, so recording costs one mutex-guarded append.
type tracer struct {
	traceID string
	epoch   time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(traceID string) *tracer {
	return &tracer{traceID: traceID, epoch: time.Now()}
}

// add records a finished span and returns its id.
func (t *tracer) add(parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return id
}

// begin opens a span whose children need its id before it ends.
func (t *tracer) begin(parent int, name string) int {
	now := time.Now()
	return t.add(parent, name, now, now)
}

// finish closes a span opened with begin and returns its duration.
func (t *tracer) finish(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = time.Since(t.epoch)
	return s.End - s.Start
}

// timed runs fn inside a span and returns how long it took.
func (t *tracer) timed(parent int, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(parent, name, start, end)
	return end.Sub(start)
}

func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// selfTime is a span's duration minus the part of its interval that the
// union of its direct children covers.
func (t *tracer) selfTime(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[id-1]
	var kids []span
	for _, s := range t.spans {
		if s.Parent == id {
			kids = append(kids, s)
		}
	}
	return (p.End - p.Start) - unionWithin(kids, p.Start, p.End)
}

// unionWithin is the total length of the union of the spans' intervals,
// clipped to [lo, hi].
func unionWithin(spans []span, lo, hi time.Duration) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var covered time.Duration
	cursor := lo
	for _, s := range spans {
		start, end := s.Start, s.End
		if start < cursor {
			start = cursor
		}
		if end > hi {
			end = hi
		}
		if end > start {
			covered += end - start
			cursor = end
		}
	}
	return covered
}

// writeChrome writes the spans as Chrome trace-event JSON (open in Perfetto
// or chrome://tracing); each event's args carry the span id, its parent's id
// and the trace id.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	// Spans of one name that overlap in time (files open at once, stages of
	// concurrent partitions) go on separate rows: each takes the first row
	// of its name that is free when it starts.
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	type row struct {
		tid  int
		busy time.Duration // end of the last span placed on the row
	}
	rows := map[string][]*row{}
	tids := 0
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		var r *row
		for _, cand := range rows[s.Name] {
			if cand.busy <= s.Start {
				r = cand
				break
			}
		}
		if r == nil {
			tids++
			r = &row{tid: tids}
			rows[s.Name] = append(rows[s.Name], r)
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: r.tid, Args: map[string]any{"name": s.Name}})
		}
		r.busy = s.End
		events = append(events, event{
			Name: s.Name, Cat: t.traceID, Ph: "X",
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: r.tid,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "trace_id": t.traceID},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
}
