package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"parahash/internal/manifest"
)

// ScrubReport summarises a checkpoint-repair pass: what was swept, what
// verified, and what had to be quarantined for selective rebuild.
type ScrubReport struct {
	// ManifestPresent is false when the directory has no manifest at all —
	// nothing is claimed, so nothing can be damaged; only leftovers are
	// swept.
	ManifestPresent bool
	// Step1Done mirrors the manifest flag. When false, no claim is
	// trustworthy (a crash mid-Step-1 journals nothing) and a resume
	// reruns everything, so Scrub verifies nothing.
	Step1Done bool
	// Swept lists the leftovers removed from the data directory by the
	// rule a resume sweeps by (orphaned *.tmp files, fenced worker results,
	// spill files no claim names), sorted.
	Swept []string
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
	// Quarantined lists store names whose damaged bytes were moved into
	// the checkpoint's quarantine/ directory (a claim damaged by absence
	// has nothing to move), sorted.
	Quarantined []string
	// ManifestRepaired reports that claims the resume could not trust, or
	// a dead fleet's leases, were dropped and the manifest re-journalled.
	ManifestRepaired bool
}

// Clean reports a checkpoint with nothing swept, nothing damaged — every
// claim verified against its durable bytes.
func (r ScrubReport) Clean() bool {
	return len(r.Swept) == 0 && r.Step1Damaged == 0 && r.Step2Damaged == 0 && r.SpillDamaged == 0
}

// Scrub is the offline checkpoint-repair pass: the assessment a resume
// makes of every manifest claim in dir (assess), plus quarantine — damaged
// claimed files are moved into dir/quarantine, never deleted, so the next
// resume selectively rebuilds them and an operator can inspect them — a
// save of the repaired manifest, and the leftover sweep (sweepLeftovers).
//
// Scrub is safe to run repeatedly and on a checkpoint that was interrupted
// at any point. A directory that does not exist is an error wrapping
// fs.ErrNotExist, and Scrub creates nothing; an existing one without a
// manifest is an empty checkpoint. A corrupt manifest is an error, not a
// repair: Scrub cannot distinguish a damaged journal from someone else's
// file, and a fresh (non-resume) build resets the directory anyway.
func Scrub(dir string) (ScrubReport, error) {
	var rep ScrubReport
	// Before the store is opened, which would create it.
	if _, err := os.Stat(dir); err != nil {
		return rep, fmt.Errorf("core: scrub: %w", err)
	}
	ck, err := newCheckpoint(dir)
	if err != nil {
		return rep, fmt.Errorf("core: scrub: %w", err)
	}
	m, err := manifest.Load(ck.path)
	switch {
	case os.IsNotExist(err):
	case err != nil:
		return rep, fmt.Errorf("core: scrub: %w", err)
	default:
		ck.man = m
		rep.ManifestPresent, rep.Step1Done = true, m.Step1Done
		step2Claims := len(m.Step2)
		ck.assess(0)
		if !m.Step1Done {
			break
		}
		// A resume never reads the Step 1 file under a verified subgraph;
		// Scrub does, so the operator learns of damage a rebuild would need.
		for i := range ck.step2Skip {
			if rec := m.Step1For(i); !verifyStep1File(ck.ds, rec) {
				ck.damaged = append(ck.damaged, rec.Name)
				ck.step1Rebuild[i] = true
			}
		}
		rep.Step1Damaged = len(ck.step1Rebuild)
		rep.Step1Verified = m.Partitions - rep.Step1Damaged
		rep.Step2Verified = len(ck.step2Skip)
		rep.Step2Damaged = step2Claims - rep.Step2Verified
		rep.SpillVerified, rep.SpillDamaged = ck.runsVerified, ck.runsDamaged
		for _, name := range ck.damaged {
			src := filepath.Join(ck.ds.Root(), filepath.FromSlash(name))
			dst := filepath.Join(dir, "quarantine", filepath.FromSlash(name))
			if _, err := os.Lstat(src); os.IsNotExist(err) {
				continue // damaged by absence: nothing to move aside
			}
			if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
				return rep, fmt.Errorf("core: scrub: quarantining %q: %w", name, err)
			}
			if err := os.Rename(src, dst); err != nil {
				return rep, fmt.Errorf("core: scrub: quarantining %q: %w", name, err)
			}
			rep.Quarantined = append(rep.Quarantined, name)
		}
		sort.Strings(rep.Quarantined)
		if ck.changed {
			if err := m.Save(ck.path); err != nil {
				return rep, fmt.Errorf("core: scrub: repairing manifest: %w", err)
			}
			rep.ManifestRepaired = true
		}
	}
	// Only after the repaired manifest is saved: removing a run before its
	// claim is durably dropped would turn a crash here into phantom damage
	// on the next pass.
	if rep.Swept, err = sweepLeftovers(ck.ds, ck.man); err != nil {
		return rep, fmt.Errorf("core: scrub: sweeping leftovers: %w", err)
	}
	return rep, nil
}
