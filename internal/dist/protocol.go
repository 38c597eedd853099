// Package dist stretches the partition contract across processes: a
// coordinator leases contiguous Step 2 partition ranges to N worker
// processes, journals every lease (worker id + fencing token + expiry) in
// the build manifest, and folds verified worker results back through the
// checkpoint's atomic publish-then-journal discipline.
//
// The fault model is processes, not goroutines. A worker may be SIGKILL'd,
// wedge forever, or be partitioned from the coordinator and keep working
// ("split brain"). Liveness comes from leases: a worker that stops
// heartbeating past its lease expiry is presumed dead, its partitions are
// re-leased to survivors under a strictly larger fencing token, and the
// possibly-still-running original can never corrupt the build — workers
// only ever publish under token-suffixed fenced names, and the coordinator
// promotes a fenced file to the canonical partition name only while its
// token is current. A zombie's late write is at worst an orphan file the
// end-of-run sweep removes.
package dist

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"parahash/internal/core"
)

// Message types, coordinator → worker.
const (
	// TypeAssign leases the Partitions range to the worker under Token;
	// the worker must heartbeat within LeaseMS milliseconds.
	TypeAssign = "assign"
	// TypeShutdown asks the worker to exit cleanly.
	TypeShutdown = "shutdown"
)

// Message types, worker → coordinator.
const (
	// TypeHello announces a started worker, ready for its first lease.
	TypeHello = "hello"
	// TypeHeartbeat renews the worker's current lease.
	TypeHeartbeat = "heartbeat"
	// TypeDone reports one partition's fenced subgraph published.
	TypeDone = "done"
	// TypeError reports a partition attempt that failed; the lease is
	// returned for reassignment.
	TypeError = "error"
)

// Message is the single wire frame of the coordinator/worker protocol,
// one JSON object per line. Field use depends on Type; unused fields are
// omitted from the encoding.
type Message struct {
	Type   string `json:"type"`
	Worker string `json:"worker,omitempty"`
	Token  int64  `json:"token,omitempty"`

	// Assign fields.
	Partitions []int `json:"partitions,omitempty"`
	LeaseMS    int64 `json:"lease_ms,omitempty"`

	// Done / error fields.
	Partition int    `json:"partition,omitempty"`
	Name      string `json:"name,omitempty"`
	Bytes     int64  `json:"bytes,omitempty"`
	Vertices  int64  `json:"vertices,omitempty"`
	Edges     int64  `json:"edges,omitempty"`
	Distinct  int64  `json:"distinct,omitempty"`
	Kmers     int64  `json:"kmers,omitempty"`
	// Counters is the partition's work (hash table, spill, decoded bytes),
	// folded into the run's stats once the result is promoted.
	Counters *core.Step2Counters `json:"counters,omitempty"`
	Error    string              `json:"error,omitempty"`
}

// WriteMessage encodes one message as a JSON line.
func WriteMessage(w io.Writer, m Message) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("dist: encoding %s message: %w", m.Type, err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("dist: writing %s message: %w", m.Type, err)
	}
	return nil
}

// ErrMalformedMessage reports a protocol line that does not decode as a
// Message.
var ErrMalformedMessage = errors.New("dist: malformed message")

// maxQuotedBytes bounds how much of a malformed line its error quotes: the
// line itself may be up to the scanner's 1 MiB.
const maxQuotedBytes = 128

// ReadMessages decodes JSON-line messages from r into out until EOF or a
// decode error, then closes out. Malformed lines terminate the stream with
// ErrMalformedMessage — a garbled pipe means the peer is not trustworthy
// anymore — and a line over 1 MiB with bufio.ErrTooLong.
func ReadMessages(r io.Reader, out chan<- Message) error {
	defer close(out)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var m Message
		if err := json.Unmarshal(line, &m); err != nil {
			quoted := line[:min(len(line), maxQuotedBytes)]
			return fmt.Errorf("%w: %q (%d bytes): %v", ErrMalformedMessage, quoted, len(line), err)
		}
		out <- m
	}
	return sc.Err()
}
