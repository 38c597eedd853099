package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"parahash/internal/diskstore"
	"parahash/internal/manifest"
)

// ScrubReport summarises a checkpoint-repair pass: what was swept, what
// verified, and what had to be quarantined for selective rebuild.
type ScrubReport struct {
	// ManifestPresent is false when the directory has no manifest at all —
	// nothing is claimed, so nothing can be damaged; only .tmp sweeping
	// applies.
	ManifestPresent bool
	// Step1Done mirrors the manifest flag. When false, no claim is
	// trustworthy (a crash mid-Step-1 journals nothing) and a resume
	// reruns everything, so Scrub verifies nothing.
	Step1Done bool
	// TmpSwept lists orphaned in-flight *.tmp files removed from the data
	// directory, sorted.
	TmpSwept []string
	// Step1Verified and Step2Verified count manifest claims whose backing
	// file passed full verification (size, decode, CRC / vertex count).
	Step1Verified int
	Step2Verified int
	// Step1Damaged and Step2Damaged count claims whose backing file failed
	// verification. Damaged Step 2 claims are dropped from the manifest;
	// damaged Step 1 files are quarantined but their claims kept, so a
	// resume sees the missing file and selectively rebuilds exactly those
	// partitions.
	Step1Damaged int
	Step2Damaged int
	// SpillVerified and SpillDamaged count journalled out-of-core run
	// claims by the same judgement resume assessment applies (size, CRC
	// footer, journalled checksum, sort order). A partition with any
	// damaged run has its whole spill state dropped; the resume re-spills
	// it from its Step 1 file. So has one whose runs carry no done mark —
	// builds that journalled each run as it landed left those mid-scan;
	// this one claims a scan only once it is complete — and that is
	// routine crash hygiene, not damage.
	SpillVerified int
	SpillDamaged  int
	// SpillSwept lists orphaned spill run files removed from the data
	// directory (merge intermediates, runs of dropped claims, runs
	// superseded by a published subgraph), sorted.
	SpillSwept []string
	// Quarantined lists store names whose damaged bytes were moved into
	// the checkpoint's quarantine/ directory (a claim damaged by absence
	// has nothing to move), sorted.
	Quarantined []string
	// ManifestRepaired reports that damaged Step 2 claims were dropped and
	// the manifest re-journalled.
	ManifestRepaired bool
}

// Clean reports a checkpoint with nothing swept, nothing damaged — every
// claim verified against its durable bytes.
func (r ScrubReport) Clean() bool {
	return len(r.TmpSwept) == 0 && r.Step1Damaged == 0 && r.Step2Damaged == 0 &&
		r.SpillDamaged == 0 && len(r.SpillSwept) == 0
}

// Scrub is the offline checkpoint-repair pass: it verifies every manifest
// claim in dir against the durable bytes — the same judgement a resume's
// assessment applies — sweeps orphaned in-flight *.tmp files, and moves
// damaged partition files into dir/quarantine so the next resume
// selectively rebuilds them instead of tripping over bad bytes. It never
// deletes data it cannot account for: damaged files are moved aside, not
// removed, so an operator can inspect what went wrong.
//
// Scrub is safe to run repeatedly and on a checkpoint that was interrupted
// at any point; it mutates the manifest only to drop Step 2 claims whose
// artifact failed verification. A corrupt manifest is an error, not a
// repair: Scrub cannot distinguish a damaged journal from someone else's
// file, and a fresh (non-resume) build resets the directory anyway.
func Scrub(dir string) (ScrubReport, error) {
	var rep ScrubReport
	ds, err := diskstore.Open(filepath.Join(dir, "data"))
	if err != nil {
		return rep, fmt.Errorf("core: scrub: opening checkpoint store: %w", err)
	}
	swept, err := ds.SweepTmp()
	if err != nil {
		return rep, fmt.Errorf("core: scrub: sweeping in-flight files: %w", err)
	}
	rep.TmpSwept = swept

	manPath := filepath.Join(dir, "manifest.json")
	m, err := manifest.Load(manPath)
	switch {
	case os.IsNotExist(err):
		return rep, nil
	case err != nil:
		return rep, fmt.Errorf("core: scrub: %w", err)
	}
	rep.ManifestPresent = true
	rep.Step1Done = m.Step1Done
	if !m.Step1Done {
		// Nothing journalled as complete; the resume path distrusts the
		// whole directory, so there is no claim to verify or repair.
		return rep, nil
	}

	qdir := filepath.Join(dir, "quarantine")
	quarantine := func(name string) error {
		src := filepath.Join(ds.Root(), filepath.FromSlash(name))
		if _, err := os.Lstat(src); err != nil {
			if os.IsNotExist(err) {
				return nil // damaged by absence: nothing to move aside
			}
			return err
		}
		dst := filepath.Join(qdir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		if err := os.Rename(src, dst); err != nil {
			return err
		}
		rep.Quarantined = append(rep.Quarantined, name)
		return nil
	}

	repaired := false
	// Outstanding worker leases belong to a coordinator that no longer
	// exists; a scrubbed checkpoint has no live fleet, so drop them (the
	// fencing-token high-water mark survives, keeping tokens unique across
	// the repair).
	if len(m.Leases) > 0 {
		m.ClearLeases()
		repaired = true
	}
	for i := 0; i < m.Partitions; i++ {
		if rec := m.Step2For(i); rec != nil {
			if verifySubgraphFile(ds, 0, rec) {
				rep.Step2Verified++
			} else {
				rep.Step2Damaged++
				if err := quarantine(rec.Name); err != nil {
					return rep, fmt.Errorf("core: scrub: quarantining %q: %w", rec.Name, err)
				}
				// Without its claim the resume re-executes the partition
				// from its (verified) Step 1 file.
				m.DropStep2(i)
				repaired = true
			}
		}
		// Spill claims: verify every journalled run; any damage — or an
		// older build's mid-scan claims, runs without the done mark — drops
		// the partition's whole spill state so the resume re-spills from
		// the (verified) Step 1 file. k comes from the
		// run headers themselves; the manifest cross-checks size, checksum
		// and vertex count, which is what distinguishes a damaged run from a
		// well-formed but wrong one.
		if runs := m.SpillRunsFor(i); len(runs) > 0 || m.IsSpillDone(i) {
			damaged := false
			for _, rec := range runs {
				if verifySpillRunFile(ds, 0, rec) {
					rep.SpillVerified++
					continue
				}
				rep.SpillDamaged++
				damaged = true
				if err := quarantine(rec.Name); err != nil {
					return rep, fmt.Errorf("core: scrub: quarantining %q: %w", rec.Name, err)
				}
			}
			if damaged || !m.IsSpillDone(i) {
				m.DropSpill(i)
				repaired = true
			}
		}
		if rec := m.Step1For(i); verifyStep1File(ds, rec) {
			rep.Step1Verified++
		} else {
			rep.Step1Damaged++
			if rec != nil {
				if err := quarantine(rec.Name); err != nil {
					return rep, fmt.Errorf("core: scrub: quarantining %q: %w", rec.Name, err)
				}
			}
			// The claim stays: resume's assessment sees the now-missing
			// file, fails verification the same way, and selectively
			// rebuilds just this partition's Step 1 output.
		}
	}
	if repaired {
		if err := m.Save(manPath); err != nil {
			return rep, fmt.Errorf("core: scrub: repairing manifest: %w", err)
		}
		rep.ManifestRepaired = true
	}

	// Sweep orphaned spill files: the runs of a scan that never completed
	// and merge intermediates (neither ever journalled, nor ever fsync'd —
	// after a power loss they may be empty or truncated), runs of claims
	// dropped above, and runs superseded by a published subgraph. Every
	// surviving claim was verified, so anything under spill/ not claimed is
	// reconstructible in-flight state, removed like a *.tmp file. The sweep
	// runs only after the repaired manifest is saved — removing a file
	// before its claim is durably dropped would turn a crash here into
	// phantom damage on the next pass.
	claimed := make(map[string]bool, len(m.SpillRuns))
	for _, rec := range m.SpillRuns {
		claimed[rec.Name] = true
	}
	names, err := ds.List()
	if err != nil {
		return rep, fmt.Errorf("core: scrub: listing store: %w", err)
	}
	for _, name := range names {
		if strings.HasPrefix(name, "spill/") && !claimed[name] {
			if err := ds.Remove(name); err != nil {
				return rep, fmt.Errorf("core: scrub: sweeping %q: %w", name, err)
			}
			rep.SpillSwept = append(rep.SpillSwept, name)
		}
	}
	sort.Strings(rep.SpillSwept)
	sort.Strings(rep.Quarantined)
	return rep, nil
}
