// Command parahashd is the long-running ParaHash build/query server: a
// crash-recoverable daemon with a fault-hardened job lifecycle. Clients
// submit FASTQ build jobs over HTTP, poll status, query completed graphs
// for k-mer membership/abundance, and download graph and metrics files.
//
// Robustness is the headline. Jobs are journalled durably before they are
// acknowledged; a SIGKILL'd daemon restarts, scrubs orphaned checkpoint
// state, and resumes in-flight jobs to byte-identical graphs. Overload is
// shed with typed 429 responses instead of unbounded queueing, running
// jobs pass a cross-job memory-budget admission gate, and SIGTERM drains
// gracefully: admission stops, running jobs checkpoint and are journalled
// back to queued, and the process exits 0 for the next one to resume.
//
// Usage:
//
//	parahashd -addr :8080 -data /var/lib/parahash -mem-budget 2G
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"parahash"
	"parahash/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "parahashd:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("parahashd", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "HTTP listen address (use :0 for an ephemeral port)")
		addrFile = fs.String("addr-file", "", "write the bound listen address to this file once serving (for scripts and tests)")
		dataDir  = fs.String("data", "", "server data directory: job journal, inputs, checkpoints, graphs (required)")

		k          = fs.Int("k", 27, "default k-mer length for jobs that do not set one")
		p          = fs.Int("p", 11, "default minimizer length")
		partitions = fs.Int("partitions", 64, "default superkmer partition count")
		threads    = fs.Int("threads", 8, "CPU worker threads per job")

		memBudget   = fs.String("mem-budget", "", "cross-job memory budget, e.g. 512M: summed Property-1 job footprints queue under this bound (empty = none)")
		maxQueue    = fs.Int("max-queue", 16, "max queued+running jobs before submissions are shed with 429")
		jobDeadline = fs.Duration("job-deadline", 0, "per-job wall-clock deadline; also seeds the per-partition watchdog (0 = none)")

		graphCache    = fs.Int("graph-cache", 8, "completed jobs' graph files kept open for queries (LRU; a descriptor and 0.4% of the file each); an evicted file is reopened and re-checked on its next query")
		journalRetain = fs.Int("journal-retain", 64, "terminal job records kept through startup journal compaction; queued/running records are always kept")

		retryMax     = fs.Int("retry-max", 2, "retries per job after a transient build failure (resuming from its checkpoint)")
		retryBackoff = fs.Duration("retry-backoff", 50*time.Millisecond, "base retry backoff, doubling per retry")
		retryJitter  = fs.Float64("retry-jitter", 0.5, "uniform retry-backoff jitter factor in [0,1]; decorrelates jobs retrying a shared fault")
		jitterSeed   = fs.Int64("jitter-seed", 0, "seed for the retry jitter stream (0 = time-based)")

		drainTimeout = fs.Duration("drain-timeout", time.Minute, "max time to wait for running jobs to checkpoint on SIGTERM")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" {
		return errors.New("-data DIR is required")
	}
	seed := *jitterSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}

	base := parahash.DefaultConfig()
	base.K = *k
	base.P = *p
	base.NumPartitions = *partitions
	base.CPUThreads = *threads
	base.NumGPUs = 0

	opts := server.Options{
		Root:           *dataDir,
		Base:           base,
		MaxQueue:       *maxQueue,
		JobDeadline:    *jobDeadline,
		RetryMax:       *retryMax,
		RetryBackoff:   *retryBackoff,
		RetryJitter:    *retryJitter,
		RetrySeed:      seed,
		GraphCacheSize: *graphCache,
		JournalRetain:  *journalRetain,
		Logf:           log.New(stdout, "", log.LstdFlags).Printf,
	}
	if *memBudget != "" {
		budget, err := parseBytes(*memBudget)
		if err != nil {
			return fmt.Errorf("-mem-budget: %w", err)
		}
		opts.MemoryBudgetBytes = budget
	}

	// SIGTERM/SIGINT start the graceful drain (stop admitting, checkpoint and
	// journal running jobs, exit 0); a second signal kills. Registered before
	// /healthz can answer: a client may signal the moment it does.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// The listener binds before recovery so /healthz can answer 503
	// "starting" while journalled jobs are scrubbed and re-queued; it
	// flips to 200 only once the manager reports ready.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	if *addrFile != "" {
		if err := writeAddrFile(*addrFile, ln.Addr().String()); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "parahashd listening on %s (data %s)\n", ln.Addr(), *dataDir)

	var api http.Handler
	ready := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-ready: // closed after api is set; the close orders the write
			api.ServeHTTP(w, r)
		default:
			http.Error(w, "starting", http.StatusServiceUnavailable)
		}
	})
	srv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// Test hook: hold the "starting" window open so e2e tests can observe
	// /healthz answering 503 before recovery completes. Unset (every
	// production run) it is a no-op.
	if ms, _ := strconv.Atoi(os.Getenv("PARAHASHD_HOLD_STARTING_MS")); ms > 0 {
		time.Sleep(time.Duration(ms) * time.Millisecond)
	}

	mgr, err := server.Open(opts)
	if err != nil {
		srv.Close()
		return err
	}
	api = server.Handler(mgr)
	close(ready)
	rec := mgr.Recovery()
	if len(rec.Requeued) > 0 || rec.TmpSwept > 0 {
		fmt.Fprintf(stdout, "recovery: %d jobs re-queued (%s), %d orphaned tmp files swept\n",
			len(rec.Requeued), strings.Join(rec.Requeued, ", "), rec.TmpSwept)
	}
	fmt.Fprintln(stdout, "parahashd ready")

	select {
	case <-ctx.Done():
	case err := <-serveErr:
		return fmt.Errorf("http server: %w", err)
	}
	fmt.Fprintln(stdout, "parahashd draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := mgr.Drain(drainCtx); err != nil {
		return err
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		srv.Close()
	}
	fmt.Fprintln(stdout, "parahashd drained cleanly")
	return nil
}

// writeAddrFile atomically publishes the bound address for the parent
// process (or an e2e test) to read.
func writeAddrFile(path, addr string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr+"\n"), 0o666); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// parseBytes parses a human byte size: a plain integer, or one with a
// K/M/G/T suffix (binary multiples; trailing "B"/"iB" accepted).
func parseBytes(s string) (int64, error) {
	orig := s
	upper := strings.ToUpper(strings.TrimSpace(s))
	upper = strings.TrimSuffix(upper, "IB")
	upper = strings.TrimSuffix(upper, "B")
	mult := int64(1)
	if n := len(upper); n > 0 {
		switch upper[n-1] {
		case 'K':
			mult, upper = 1<<10, upper[:n-1]
		case 'M':
			mult, upper = 1<<20, upper[:n-1]
		case 'G':
			mult, upper = 1<<30, upper[:n-1]
		case 'T':
			mult, upper = 1<<40, upper[:n-1]
		}
	}
	v, err := strconv.ParseInt(strings.TrimSpace(upper), 10, 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("invalid byte size %q (want e.g. 1073741824, 512M, 2G)", orig)
	}
	if v > (1<<63-1)/mult {
		return 0, fmt.Errorf("byte size %q overflows", orig)
	}
	return v * mult, nil
}
