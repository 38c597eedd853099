// Package manifest implements the build manifest that makes checkpointed
// ParaHash builds resumable across processes: a small versioned JSON journal
// ("parahash.manifest/v1") recording the build's config fingerprint, the
// per-partition Step 1 results (file name, byte size, record CRC32 and the
// partition statistics needed to restart Step 2 without rescanning), and the
// per-partition Step 2 completions (subgraph file name, vertex/edge counts).
//
// The journal follows the same append-then-rename discipline as the
// partition files themselves: every update rewrites the full manifest to a
// temporary sibling, fsyncs it, and atomically renames it over the real
// path. A reader therefore always sees a complete, internally consistent
// manifest — and because partitions are recorded only after their files are
// durably published, every claim in the manifest is backed by bytes on disk
// (the resume path still re-verifies each claim against the store).
package manifest

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"parahash/internal/atomicfile"
)

// Schema identifies the manifest layout; bump on breaking changes so a
// resume against a manifest from an incompatible build fails fast instead
// of mixing partitions.
const Schema = "parahash.manifest/v1"

// ErrMismatch reports a manifest whose config fingerprint (or partition
// count) does not match the resuming build's configuration. Resuming such a
// build would silently mix partitions from two different constructions, so
// the caller must fail fast.
var ErrMismatch = errors.New("manifest: config fingerprint mismatch")

// ErrCorrupt reports a manifest that is structurally invalid: unparsable
// JSON, an unknown schema version, duplicate or out-of-range partition
// entries, or internally inconsistent completion claims.
var ErrCorrupt = errors.New("manifest: corrupt manifest")

// Step1Partition records one durably published superkmer partition file.
// Bytes is the full file size (records plus integrity footer); CRC32 is the
// IEEE CRC of the record bytes — the same value the msp footer carries, so
// resume verification can decode the file with Decoder.RequireFooter and
// compare checksums. The statistic fields mirror msp.PartitionStats so a
// resumed Step 2 can be scheduled without rescanning the input.
type Step1Partition struct {
	Index        int    `json:"index"`
	Name         string `json:"name"`
	Bytes        int64  `json:"bytes"`
	CRC32        uint32 `json:"crc32"`
	Superkmers   int64  `json:"superkmers"`
	Kmers        int64  `json:"kmers"`
	Bases        int64  `json:"bases"`
	EncodedBytes int64  `json:"encoded_bytes"`
	PlainBytes   int64  `json:"plain_bytes"`
}

// Step2Partition records one durably published subgraph file. Vertices and
// Edges describe the written file (after any output filtering); Distinct is
// the constructed pre-filter vertex count, kept separately so a resumed run
// reports the same graph size as an uninterrupted one.
type Step2Partition struct {
	Index    int    `json:"index"`
	Name     string `json:"name"`
	Bytes    int64  `json:"bytes"`
	Vertices int64  `json:"vertices"`
	Edges    int64  `json:"edges"`
	Distinct int64  `json:"distinct"`
}

// SpillRun records one durably published out-of-core run file: a sorted,
// CRC-footered slice of a partition's vertex multiset, spilled by the
// external-memory Step 2 path when the partition's table prediction
// exceeded its memory budget. Bytes is the full file size (header, records
// and footer); CRC32 is the run's own footer checksum, recorded
// independently so resume verification can cross-check the bytes on disk
// against the journal. Spill claims are dropped in the same atomic save
// that journals the partition's Step 2 completion — a partition never
// carries both.
type SpillRun struct {
	Partition int    `json:"partition"`
	Run       int    `json:"run"`
	Name      string `json:"name"`
	Bytes     int64  `json:"bytes"`
	CRC32     uint32 `json:"crc32"`
	Vertices  int64  `json:"vertices"`
}

// Lease records a coordinator-granted claim on a contiguous Step 2
// partition range [Start, Start+Count). Token is the fencing token minted
// when the lease was granted: it increases monotonically across all grants
// (the manifest's LeaseToken is the high-water mark), so after a partition
// is re-assigned, results carrying the old token are provably stale and are
// discarded instead of published. ExpiryUnixMS is the wall-clock deadline
// (Unix milliseconds) by which the holder must have renewed via heartbeat;
// a lease past expiry is treated as abandoned and its range re-assigned.
type Lease struct {
	Start        int    `json:"start"`
	Count        int    `json:"count"`
	Worker       string `json:"worker"`
	Token        int64  `json:"token"`
	ExpiryUnixMS int64  `json:"expiry_unix_ms"`
}

// Covers reports whether the lease's range contains partition index p.
func (l *Lease) Covers(p int) bool { return p >= l.Start && p < l.Start+l.Count }

// Manifest is the persisted build journal.
type Manifest struct {
	Schema      string `json:"schema"`
	Fingerprint string `json:"fingerprint"`
	// Partitions is the build's NumPartitions; every entry index must lie
	// in [0, Partitions).
	Partitions int `json:"partitions"`
	// Step1Done marks MSP partitioning complete: all partition files are
	// published and recorded in Step1.
	Step1Done bool             `json:"step1_done"`
	Step1     []Step1Partition `json:"step1,omitempty"`
	Step2     []Step2Partition `json:"step2,omitempty"`
	// SpillRuns journals the durably published out-of-core run files of
	// partitions currently being constructed by the external-memory Step 2
	// path. SpillDone lists partitions whose run scan finished (every run
	// journalled), so a resume can go straight to the merge instead of
	// re-spilling. Both are cleared for a partition in the same save that
	// records its Step 2 completion.
	SpillRuns []SpillRun `json:"spill_runs,omitempty"`
	SpillDone []int      `json:"spill_done,omitempty"`
	// LeaseToken is the high-water fencing token: every granted lease's
	// Token lies in (0, LeaseToken]. Journalling the high-water mark with
	// the leases themselves guarantees tokens never repeat across a
	// coordinator crash/restart.
	LeaseToken int64 `json:"lease_token,omitempty"`
	// Leases are the currently outstanding worker claims on Step 2
	// partition ranges. They are advisory for resume (a fresh coordinator
	// clears them and re-plans) but their integrity is validated like any
	// other claim so a torn write cannot smuggle in an inconsistent view.
	Leases []Lease `json:"leases,omitempty"`
}

// New returns an empty manifest for a build with the given fingerprint and
// partition count.
func New(fingerprint string, partitions int) *Manifest {
	return &Manifest{Schema: Schema, Fingerprint: fingerprint, Partitions: partitions}
}

// Fingerprint derives a stable hex fingerprint from the configuration
// fields that determine partition content. Fields are joined in argument
// order, so callers must pass them in a fixed canonical order.
func Fingerprint(fields ...string) string {
	h := sha256.Sum256([]byte(strings.Join(fields, "\x00")))
	return hex.EncodeToString(h[:16])
}

// Parse decodes and validates a manifest. Structural problems — bad JSON,
// unknown schema, duplicate or out-of-range entries, Step1Done with an
// incomplete Step 1 roster, Step 2 claims without a finished Step 1 —
// return errors wrapping ErrCorrupt.
func Parse(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if m.Schema != Schema {
		return nil, fmt.Errorf("%w: unknown schema version %q (want %q)", ErrCorrupt, m.Schema, Schema)
	}
	if m.Partitions <= 0 {
		return nil, fmt.Errorf("%w: non-positive partition count %d", ErrCorrupt, m.Partitions)
	}
	seen1 := make(map[int]bool, len(m.Step1))
	for _, p := range m.Step1 {
		if p.Index < 0 || p.Index >= m.Partitions {
			return nil, fmt.Errorf("%w: step 1 index %d out of range [0,%d)", ErrCorrupt, p.Index, m.Partitions)
		}
		if seen1[p.Index] {
			return nil, fmt.Errorf("%w: duplicate step 1 entry for partition %d", ErrCorrupt, p.Index)
		}
		seen1[p.Index] = true
	}
	seen2 := make(map[int]bool, len(m.Step2))
	for _, p := range m.Step2 {
		if p.Index < 0 || p.Index >= m.Partitions {
			return nil, fmt.Errorf("%w: step 2 index %d out of range [0,%d)", ErrCorrupt, p.Index, m.Partitions)
		}
		if seen2[p.Index] {
			return nil, fmt.Errorf("%w: duplicate step 2 entry for partition %d", ErrCorrupt, p.Index)
		}
		seen2[p.Index] = true
	}
	seenSpill := make(map[[2]int]bool, len(m.SpillRuns))
	for _, r := range m.SpillRuns {
		if r.Partition < 0 || r.Partition >= m.Partitions {
			return nil, fmt.Errorf("%w: spill run partition %d out of range [0,%d)", ErrCorrupt, r.Partition, m.Partitions)
		}
		if r.Run < 0 {
			return nil, fmt.Errorf("%w: negative spill run ordinal %d (partition %d)", ErrCorrupt, r.Run, r.Partition)
		}
		if r.Name == "" {
			return nil, fmt.Errorf("%w: spill run %d of partition %d has no name", ErrCorrupt, r.Run, r.Partition)
		}
		key := [2]int{r.Partition, r.Run}
		if seenSpill[key] {
			return nil, fmt.Errorf("%w: duplicate spill run %d for partition %d", ErrCorrupt, r.Run, r.Partition)
		}
		seenSpill[key] = true
		if seen2[r.Partition] {
			return nil, fmt.Errorf("%w: partition %d has both a step 2 completion and spill runs", ErrCorrupt, r.Partition)
		}
	}
	seenDone := make(map[int]bool, len(m.SpillDone))
	for _, p := range m.SpillDone {
		if p < 0 || p >= m.Partitions {
			return nil, fmt.Errorf("%w: spill-done partition %d out of range [0,%d)", ErrCorrupt, p, m.Partitions)
		}
		if seenDone[p] {
			return nil, fmt.Errorf("%w: duplicate spill-done entry for partition %d", ErrCorrupt, p)
		}
		seenDone[p] = true
		if seen2[p] {
			return nil, fmt.Errorf("%w: partition %d has both a step 2 completion and a spill-done mark", ErrCorrupt, p)
		}
	}
	if m.Step1Done && len(m.Step1) != m.Partitions {
		return nil, fmt.Errorf("%w: step 1 marked done with %d of %d partitions recorded",
			ErrCorrupt, len(m.Step1), m.Partitions)
	}
	if !m.Step1Done && len(m.Step2) > 0 {
		return nil, fmt.Errorf("%w: step 2 completions recorded before step 1 finished", ErrCorrupt)
	}
	if !m.Step1Done && (len(m.SpillRuns) > 0 || len(m.SpillDone) > 0) {
		return nil, fmt.Errorf("%w: spill runs recorded before step 1 finished", ErrCorrupt)
	}
	if len(m.Leases) > 0 && !m.Step1Done {
		return nil, fmt.Errorf("%w: step 2 leases recorded before step 1 finished", ErrCorrupt)
	}
	if m.LeaseToken < 0 {
		return nil, fmt.Errorf("%w: negative lease token high-water %d", ErrCorrupt, m.LeaseToken)
	}
	tokens := make(map[int64]bool, len(m.Leases))
	claimed := make(map[int]bool)
	for _, l := range m.Leases {
		if l.Count <= 0 || l.Start < 0 || l.Start+l.Count > m.Partitions {
			return nil, fmt.Errorf("%w: lease range [%d,%d) outside [0,%d)",
				ErrCorrupt, l.Start, l.Start+l.Count, m.Partitions)
		}
		if l.Worker == "" {
			return nil, fmt.Errorf("%w: lease on [%d,%d) has no worker id",
				ErrCorrupt, l.Start, l.Start+l.Count)
		}
		if l.Token <= 0 || l.Token > m.LeaseToken {
			return nil, fmt.Errorf("%w: lease token %d outside (0,%d]",
				ErrCorrupt, l.Token, m.LeaseToken)
		}
		if tokens[l.Token] {
			return nil, fmt.Errorf("%w: duplicate lease token %d", ErrCorrupt, l.Token)
		}
		tokens[l.Token] = true
		for p := l.Start; p < l.Start+l.Count; p++ {
			if claimed[p] {
				return nil, fmt.Errorf("%w: partition %d leased twice", ErrCorrupt, p)
			}
			claimed[p] = true
		}
	}
	return &m, nil
}

// Load reads and validates the manifest at path. A missing file surfaces
// the os.IsNotExist error unwrapped, so callers can distinguish "no
// checkpoint yet" from a corrupt one.
func Load(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// Save atomically and durably persists the manifest; a crash during Save
// leaves the previous manifest intact.
func (m *Manifest) Save(path string) error {
	err := atomicfile.WriteDurable(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
	if err != nil {
		return fmt.Errorf("manifest: writing: %w", err)
	}
	return nil
}

// Validate checks the manifest against a resuming build's fingerprint and
// partition count, returning an error wrapping ErrMismatch on divergence.
func (m *Manifest) Validate(fingerprint string, partitions int) error {
	if m.Fingerprint != fingerprint {
		return fmt.Errorf("%w: manifest built with fingerprint %s, this run is %s",
			ErrMismatch, m.Fingerprint, fingerprint)
	}
	if m.Partitions != partitions {
		return fmt.Errorf("%w: manifest has %d partitions, this run wants %d",
			ErrMismatch, m.Partitions, partitions)
	}
	return nil
}

// Step1For returns the Step 1 record for a partition, or nil.
func (m *Manifest) Step1For(index int) *Step1Partition {
	for i := range m.Step1 {
		if m.Step1[i].Index == index {
			return &m.Step1[i]
		}
	}
	return nil
}

// Step2For returns the Step 2 record for a partition, or nil.
func (m *Manifest) Step2For(index int) *Step2Partition {
	for i := range m.Step2 {
		if m.Step2[i].Index == index {
			return &m.Step2[i]
		}
	}
	return nil
}

// SetStep1 installs or replaces a partition's Step 1 record.
func (m *Manifest) SetStep1(rec Step1Partition) {
	for i := range m.Step1 {
		if m.Step1[i].Index == rec.Index {
			m.Step1[i] = rec
			return
		}
	}
	m.Step1 = append(m.Step1, rec)
}

// SetStep2 installs or replaces a partition's Step 2 record.
func (m *Manifest) SetStep2(rec Step2Partition) {
	for i := range m.Step2 {
		if m.Step2[i].Index == rec.Index {
			m.Step2[i] = rec
			return
		}
	}
	m.Step2 = append(m.Step2, rec)
}

// DropStep2 removes a partition's Step 2 record if present, invalidating a
// claim whose artifact failed verification.
func (m *Manifest) DropStep2(index int) {
	for i := range m.Step2 {
		if m.Step2[i].Index == index {
			m.Step2 = append(m.Step2[:i], m.Step2[i+1:]...)
			return
		}
	}
}

// SpillRunsFor returns the journalled spill runs of a partition in run
// ordinal order (the merge order).
func (m *Manifest) SpillRunsFor(partition int) []SpillRun {
	var runs []SpillRun
	for _, r := range m.SpillRuns {
		if r.Partition == partition {
			runs = append(runs, r)
		}
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Run < runs[j].Run })
	return runs
}

// AddSpillRun installs or replaces a spill run record keyed by
// (partition, run ordinal). Replacement happens when a failed construction
// attempt is retried: the retry regenerates the same deterministic run
// names, overwriting both the file and its journal entry.
func (m *Manifest) AddSpillRun(rec SpillRun) {
	for i := range m.SpillRuns {
		if m.SpillRuns[i].Partition == rec.Partition && m.SpillRuns[i].Run == rec.Run {
			m.SpillRuns[i] = rec
			return
		}
	}
	m.SpillRuns = append(m.SpillRuns, rec)
}

// SetSpillDone marks a partition's run scan complete: every run it spilled
// is journalled, so a resume may merge without re-scanning superkmers.
func (m *Manifest) SetSpillDone(partition int) {
	if m.IsSpillDone(partition) {
		return
	}
	m.SpillDone = append(m.SpillDone, partition)
}

// IsSpillDone reports whether a partition's run scan is marked complete.
func (m *Manifest) IsSpillDone(partition int) bool {
	for _, p := range m.SpillDone {
		if p == partition {
			return true
		}
	}
	return false
}

// DropSpill removes all spill state (runs and the done mark) for a
// partition — called when its subgraph is journalled, when a retry starts
// over, or when resume verification finds a damaged run.
func (m *Manifest) DropSpill(partition int) {
	runs := m.SpillRuns[:0]
	for _, r := range m.SpillRuns {
		if r.Partition != partition {
			runs = append(runs, r)
		}
	}
	m.SpillRuns = runs
	done := m.SpillDone[:0]
	for _, p := range m.SpillDone {
		if p != partition {
			done = append(done, p)
		}
	}
	m.SpillDone = done
}

// NextLeaseToken mints a fresh fencing token by bumping the journalled
// high-water mark. The caller must Save before acting on the token so a
// restart can never re-mint it.
func (m *Manifest) NextLeaseToken() int64 {
	m.LeaseToken++
	return m.LeaseToken
}

// SetLease installs or replaces a lease keyed by its fencing token
// (heartbeat renewals rewrite the same token with a later expiry).
func (m *Manifest) SetLease(l Lease) {
	for i := range m.Leases {
		if m.Leases[i].Token == l.Token {
			m.Leases[i] = l
			return
		}
	}
	m.Leases = append(m.Leases, l)
}

// DropLease removes the lease with the given fencing token, if present.
func (m *Manifest) DropLease(token int64) {
	for i := range m.Leases {
		if m.Leases[i].Token == token {
			m.Leases = append(m.Leases[:i], m.Leases[i+1:]...)
			return
		}
	}
}

// LeaseFor returns the lease covering partition index p, or nil.
func (m *Manifest) LeaseFor(p int) *Lease {
	for i := range m.Leases {
		if m.Leases[i].Covers(p) {
			return &m.Leases[i]
		}
	}
	return nil
}

// ClearLeases drops all outstanding leases (a restarting coordinator owns
// the whole partition space again and re-plans from the Step 2 claims).
// The token high-water mark is deliberately retained.
func (m *Manifest) ClearLeases() { m.Leases = nil }
