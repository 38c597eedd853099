// Package faultinject provides deterministic, scripted fault plans for
// exercising the resilient pipeline: transient and persistent IO faults,
// served-byte corruption, disk-full and slow-IO faults (via this package's
// Store wrapper, over any store), processor faults
// — a device.Processor that drops out mid-run, fails or hangs a scripted
// set of Step2 calls, modelling a GPU dying or wedging under load — and
// plan-scoped stall/cancel points fired at named pipeline sites.
//
// Plans are deterministic: the same plan against the same input produces
// the same fault sequence, so degraded-mode builds remain reproducible and
// their recovered results can be compared byte-for-byte against fault-free
// runs.
//
// # Process-global vs plan-scoped knobs
//
// Two fault knobs are deliberately process-global: the CrashEnv crash
// points and the StallEnv stall points, both armed through environment
// variables with process-wide hit counters (reset via ResetStallCounts).
// They have to be: their consumers are cross-process e2e tests that arm a
// point in a parent process and observe it in a re-exec'd child, so the
// arming must survive an exec boundary, and a crash point by definition
// destroys the process — scoping it any finer is meaningless. Everything
// else — store faults, processor faults, and the StallPoints/CancelPoints
// below — is scoped to one Plan application with fresh counters, so
// concurrent in-process chaos runs never interfere with each other.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"parahash/internal/device"
	"parahash/internal/fastq"
	"parahash/internal/msp"
)

// CrashEnv is the environment variable that arms a crash point for
// crash-resume testing. Its value is "<point>" or "<point>:<n>": the n-th
// (1-based, default 1) call to MaybeCrash with that point name kills the
// process abruptly — SIGKILL-style, with no deferred cleanup — so the
// durable store and manifest are exercised exactly as a power loss would.
//
//	PARAHASH_CRASH_POINT=step2.partition:3 parahash -profile tiny -checkpoint-dir ck
const CrashEnv = "PARAHASH_CRASH_POINT"

var (
	crashMu     sync.Mutex
	crashCounts = map[string]int{}
)

// MaybeCrash kills the process if the CrashEnv variable arms the named
// crash point and its hit count has been reached. With the variable unset
// (every production run) it is a cheap no-op. The kill is delivered as an
// uncatchable signal where the platform supports it, so no buffered state
// is flushed — only durably published files survive, which is the point.
func MaybeCrash(point string) {
	spec := os.Getenv(CrashEnv)
	if spec == "" {
		return
	}
	name, hit := spec, 1
	if i := strings.LastIndexByte(spec, ':'); i >= 0 {
		if n, err := strconv.Atoi(spec[i+1:]); err == nil && n > 0 {
			name, hit = spec[:i], n
		}
	}
	if name != point {
		return
	}
	crashMu.Lock()
	crashCounts[point]++
	fire := crashCounts[point] == hit
	crashMu.Unlock()
	if !fire {
		return
	}
	fmt.Fprintf(os.Stderr, "faultinject: crash point %q hit %d — killing process\n", point, hit)
	if p, err := os.FindProcess(os.Getpid()); err == nil {
		_ = p.Kill() // SIGKILL on unix: no deferred functions, no flushes
	}
	os.Exit(137) // unreachable on unix; abrupt-exit fallback elsewhere
}

// StallEnv is the environment variable that arms a stall point for
// SIGINT/cancellation testing. Its value is "<point>" or "<point>:<n>": the
// n-th (1-based, default 1) call to MaybeStall with that point name blocks
// until the caller's context is canceled. Unlike CrashEnv's abrupt kill,
// this models a build that hangs mid-flight, so graceful-shutdown paths can
// be exercised deterministically from an e2e test.
//
//	PARAHASH_STALL_POINT=step2.partition:3 parahash -profile tiny -checkpoint-dir ck
const StallEnv = "PARAHASH_STALL_POINT"

var (
	stallMu     sync.Mutex
	stallCounts = map[string]int{}
)

// ResetStallCounts clears every env-armed stall point's hit counter.
// These counters are process-global on purpose (see the package comment):
// StallEnv arming crosses exec boundaries for e2e tests, so sequential
// in-process tests that arm the same point must reset between runs.
// Concurrent tests should use plan-scoped StallPoints instead, which
// need no reset.
func ResetStallCounts() {
	stallMu.Lock()
	stallCounts = map[string]int{}
	stallMu.Unlock()
}

// MaybeStall fires the named stall/cancel point if armed. Plan-scoped
// points (carried on ctx by Plan.ApplyPoints) are consulted first with
// their own per-plan counters; the process-global StallEnv arming is the
// fallback. A fired stall blocks until ctx is canceled and returns ctx's
// error; a fired cancel point cancels the plan's build context itself
// (with ErrPointCanceled as the cause) and then returns the same way.
// With nothing armed (every production run) it is a cheap no-op returning
// nil.
func MaybeStall(ctx context.Context, point string) error {
	if pts := pointsFrom(ctx); pts != nil {
		switch pts.fire(point) {
		case actStall:
			fmt.Fprintf(os.Stderr, "faultinject: plan stall point %q hit — blocking until canceled\n", point)
			<-ctx.Done()
			return ctx.Err()
		case actCancel:
			fmt.Fprintf(os.Stderr, "faultinject: plan cancel point %q hit — canceling build\n", point)
			pts.cancel(fmt.Errorf("%w: %s", ErrPointCanceled, point))
			<-ctx.Done()
			return ctx.Err()
		}
	}
	spec := os.Getenv(StallEnv)
	if spec == "" {
		return nil
	}
	name, hit := spec, 1
	if i := strings.LastIndexByte(spec, ':'); i >= 0 {
		if n, err := strconv.Atoi(spec[i+1:]); err == nil && n > 0 {
			name, hit = spec[:i], n
		}
	}
	if name != point {
		return nil
	}
	stallMu.Lock()
	stallCounts[point]++
	fire := stallCounts[point] == hit
	stallMu.Unlock()
	if !fire {
		return nil
	}
	fmt.Fprintf(os.Stderr, "faultinject: stall point %q hit %d — blocking until canceled\n", point, hit)
	<-ctx.Done()
	return ctx.Err()
}

// ErrInjected is the default error carried by scripted faults.
var ErrInjected = errors.New("faultinject: injected fault")

// ErrPointCanceled is the cancellation cause installed when a plan-scoped
// cancel point fires: the scripted analogue of an operator interrupt (or,
// for checkpointed builds, of a crash at the same site — the durable state
// a resume sees is identical, since only published files and journalled
// manifest entries survive either way; the SIGKILL abruptness itself is
// covered by the process-global CrashEnv e2e tests).
var ErrPointCanceled = errors.New("faultinject: canceled at armed point")

// PointFault arms one named pipeline point (e.g. "step2.partition",
// "step1.published" — the same vocabulary as CrashEnv/StallEnv) with a
// plan-scoped hit counter.
type PointFault struct {
	// Point is the pipeline site name.
	Point string
	// Hit is the 1-based call count at which the point fires (0 means 1).
	Hit int
}

// pointAction is what a fired point does.
type pointAction int

const (
	actNone   pointAction = iota
	actStall              // block until the build context is canceled
	actCancel             // cancel the build context, then block
)

// points carries one plan application's armed stall/cancel points with
// counters scoped to that application — concurrent plans never share hit
// counts the way the process-global env arming does.
type points struct {
	mu     sync.Mutex
	counts map[string]int
	stall  map[string]map[int]bool // point -> firing hit numbers
	cancel context.CancelCauseFunc
	cancl  map[string]map[int]bool
}

// fire advances the point's counter and reports the armed action, if any.
// A hit number fires at most once (arming the same hit as both stall and
// cancel resolves to cancel).
func (p *points) fire(point string) pointAction {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.counts[point]++
	n := p.counts[point]
	if p.cancl[point][n] {
		return actCancel
	}
	if p.stall[point][n] {
		return actStall
	}
	return actNone
}

type pointsCtxKey struct{}

// pointsFrom extracts the plan-scoped points from a context, or nil.
func pointsFrom(ctx context.Context) *points {
	p, _ := ctx.Value(pointsCtxKey{}).(*points)
	return p
}

// ApplyPoints returns a context carrying the plan's StallPoints and
// CancelPoints with fresh, plan-scoped hit counters. cancel is the build
// context's CancelCauseFunc, invoked with ErrPointCanceled when a cancel
// point fires; it may be nil if the plan arms no cancel points. Plans
// without points return ctx unchanged.
func (p Plan) ApplyPoints(ctx context.Context, cancel context.CancelCauseFunc) context.Context {
	if len(p.StallPoints) == 0 && len(p.CancelPoints) == 0 {
		return ctx
	}
	pts := &points{
		counts: make(map[string]int),
		stall:  make(map[string]map[int]bool),
		cancl:  make(map[string]map[int]bool),
		cancel: cancel,
	}
	if pts.cancel == nil {
		pts.cancel = func(error) {}
	}
	arm := func(m map[string]map[int]bool, f PointFault) {
		hit := f.Hit
		if hit < 1 {
			hit = 1
		}
		if m[f.Point] == nil {
			m[f.Point] = make(map[int]bool)
		}
		m[f.Point][hit] = true
	}
	for _, f := range p.StallPoints {
		arm(pts.stall, f)
	}
	for _, f := range p.CancelPoints {
		arm(pts.cancl, f)
	}
	return context.WithValue(ctx, pointsCtxKey{}, pts)
}

// ErrProcessorDead is returned by every call to a processor that has
// dropped out.
var ErrProcessorDead = errors.New("faultinject: processor dropped out")

// StoreFault scripts one file's IO fault.
type StoreFault struct {
	// File is the store file name the fault attaches to.
	File string
	// Times is how many accesses fail (or serve corrupt bytes) before the
	// file recovers; negative means every access.
	Times int
	// Err is the injected error; nil selects ErrInjected. Ignored for
	// corruption faults.
	Err error
	// Corrupt, on a read fault, serves a bit-flipped copy instead of
	// failing the open — the integrity footer must catch it downstream.
	Corrupt bool
}

// ProcessorFault scripts one processor's misbehaviour.
type ProcessorFault struct {
	// Proc indexes the processor in the pipeline's device slice (0 is the
	// CPU when enabled, then the GPUs).
	Proc int
	// DieAfter kills the processor permanently after this many successful
	// Step1/Step2 calls: every later call returns ErrProcessorDead.
	// 0 (the zero value) disables the drop-out; use DeadOnArrival for a
	// processor that never works.
	DieAfter int
	// DeadOnArrival makes every call fail with ErrProcessorDead from the
	// start.
	DeadOnArrival bool
	// FailStep2Calls lists 0-based Step2 call indices that fail once each
	// with Err, modelling sporadic per-partition kernel failures.
	FailStep2Calls []int
	// HangStep2Calls lists 0-based Step2 call indices that hang — blocking
	// on the call's context until it is canceled — modelling a wedged
	// kernel the pipeline watchdog must abandon. Each listed call hangs
	// once.
	HangStep2Calls []int
	// Err overrides the injected error for FailStep2Calls; nil selects
	// ErrInjected.
	Err error
}

// SlowFault scripts latency on one file's IO: each of the next Times
// accesses (negative: every access) sleeps Delay wall-clock before being
// served, modelling a device or filesystem that has gone slow without
// failing outright.
type SlowFault struct {
	File  string
	Times int
	Delay time.Duration
}

// Plan is a complete scripted fault scenario.
type Plan struct {
	// ReadFaults and WriteFaults script store-level IO faults.
	ReadFaults, WriteFaults []StoreFault
	// SlowReads and SlowWrites script store-level latency faults.
	SlowReads, SlowWrites []SlowFault
	// CapacityBytes, when positive, models a nearly full device: once the
	// store has accepted this many bytes, further writes fail with
	// store.ErrDiskFull.
	CapacityBytes int64
	// ProcessorFaults script compute-device faults.
	ProcessorFaults []ProcessorFault
	// StallPoints and CancelPoints arm named pipeline points with
	// plan-scoped counters (see ApplyPoints): a stall point blocks the
	// build at the site until its context is canceled; a cancel point
	// cancels the build context itself, modelling mid-build cancellation —
	// or, on a checkpointed build, a crash at that site.
	StallPoints, CancelPoints []PointFault
}

// ApplyStore installs the plan's IO faults on a fault layer (WrapStore).
func (p Plan) ApplyStore(s *Store) {
	for _, f := range p.ReadFaults {
		if f.Corrupt {
			s.CorruptReadsNTimes(f.File, f.Times)
			continue
		}
		if f.Times < 0 {
			s.FailReadsOn(f.File, errOf(f.Err))
		} else {
			s.FailReadsNTimes(f.File, f.Times, errOf(f.Err))
		}
	}
	for _, f := range p.WriteFaults {
		if f.Times < 0 {
			s.FailWritesOn(f.File, errOf(f.Err))
		} else {
			s.FailWritesNTimes(f.File, f.Times, errOf(f.Err))
		}
	}
	for _, f := range p.SlowReads {
		s.SlowReadsNTimes(f.File, f.Times, f.Delay)
	}
	for _, f := range p.SlowWrites {
		s.SlowWritesNTimes(f.File, f.Times, f.Delay)
	}
	if p.CapacityBytes > 0 {
		s.SetCapacityBytes(p.CapacityBytes)
	}
}

// WrapProcessors returns a copy of procs with the plan's processor faults
// wrapped around the scripted devices. Each call yields wrappers with fresh
// fault state, so a plan applied to both pipeline steps scripts each step
// independently.
func (p Plan) WrapProcessors(procs []device.Processor) []device.Processor {
	out := append([]device.Processor(nil), procs...)
	for _, f := range p.ProcessorFaults {
		if f.Proc < 0 || f.Proc >= len(out) {
			continue
		}
		out[f.Proc] = NewFlaky(out[f.Proc], f)
	}
	return out
}

func errOf(err error) error {
	if err == nil {
		return ErrInjected
	}
	return err
}

// Flaky wraps a device.Processor with scripted failures. It is safe for
// concurrent use, though the pipeline drives each processor from a single
// goroutine.
type Flaky struct {
	inner device.Processor
	err   error

	mu         sync.Mutex
	dieAfter   int // successful calls before drop-out; -1 = never
	successes  int
	step2Calls int
	failStep2  map[int]bool
	hangStep2  map[int]bool
}

var _ device.Processor = (*Flaky)(nil)

// NewFlaky builds the wrapper for one scripted processor fault.
func NewFlaky(p device.Processor, f ProcessorFault) *Flaky {
	fl := &Flaky{inner: p, err: errOf(f.Err), dieAfter: -1}
	if f.DeadOnArrival {
		fl.dieAfter = 0
	} else if f.DieAfter > 0 {
		fl.dieAfter = f.DieAfter
	}
	if len(f.FailStep2Calls) > 0 {
		fl.failStep2 = make(map[int]bool, len(f.FailStep2Calls))
		for _, c := range f.FailStep2Calls {
			fl.failStep2[c] = true
		}
	}
	if len(f.HangStep2Calls) > 0 {
		fl.hangStep2 = make(map[int]bool, len(f.HangStep2Calls))
		for _, c := range f.HangStep2Calls {
			fl.hangStep2[c] = true
		}
	}
	return fl
}

// Name implements device.Processor.
func (f *Flaky) Name() string { return f.inner.Name() }

// Kind implements device.Processor.
func (f *Flaky) Kind() device.Kind { return f.inner.Kind() }

// deadLocked reports whether the processor has dropped out.
func (f *Flaky) deadLocked() bool { return f.dieAfter >= 0 && f.successes >= f.dieAfter }

// Step1 implements device.Processor, honouring the drop-out script.
func (f *Flaky) Step1(ctx context.Context, reads []fastq.Read, k, p int) (device.Step1Output, error) {
	f.mu.Lock()
	if f.deadLocked() {
		f.mu.Unlock()
		return device.Step1Output{}, fmt.Errorf("%s step1: %w", f.inner.Name(), ErrProcessorDead)
	}
	f.mu.Unlock()
	out, err := f.inner.Step1(ctx, reads, k, p)
	if err == nil {
		f.mu.Lock()
		f.successes++
		f.mu.Unlock()
	}
	return out, err
}

// Step2 implements device.Processor, honouring the drop-out, per-call
// failure and hang scripts.
func (f *Flaky) Step2(ctx context.Context, sks []msp.Superkmer, k, tableSlots int) (device.Step2Output, error) {
	f.mu.Lock()
	call := f.step2Calls
	f.step2Calls++
	if f.deadLocked() {
		f.mu.Unlock()
		return device.Step2Output{}, fmt.Errorf("%s step2 (call %d): %w", f.inner.Name(), call, ErrProcessorDead)
	}
	if f.failStep2[call] {
		delete(f.failStep2, call)
		f.mu.Unlock()
		return device.Step2Output{}, fmt.Errorf("%s step2 (call %d): %w", f.inner.Name(), call, f.err)
	}
	if f.hangStep2[call] {
		delete(f.hangStep2, call)
		f.mu.Unlock()
		// A wedged kernel holds the attempt until the watchdog (or the run)
		// cancels the context; a cooperative hang keeps the test leak-free.
		<-ctx.Done()
		// It then wakes into its dead context, as a real kernel would, while
		// the pipeline may already be running this processor's next attempt:
		// the device must cope with the abandoned one winding down.
		_, _ = f.inner.Step2(ctx, sks, k, tableSlots)
		return device.Step2Output{}, fmt.Errorf("%s step2 (call %d): hang released: %w",
			f.inner.Name(), call, ctx.Err())
	}
	f.mu.Unlock()
	out, err := f.inner.Step2(ctx, sks, k, tableSlots)
	if err == nil {
		f.mu.Lock()
		f.successes++
		f.mu.Unlock()
	}
	return out, err
}
