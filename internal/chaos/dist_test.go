package chaos

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"parahash/internal/dist"
)

func TestDistScenarioGenerationIsDeterministic(t *testing.T) {
	prof, err := ProfileByName("small")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 50; seed++ {
		a := GenerateDistScenario(seed, prof)
		b := GenerateDistScenario(seed, prof)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: dist scenario not deterministic:\n%+v\n%+v", seed, a, b)
		}
	}
}

func TestDistScenarioSweepCoversEveryDimension(t *testing.T) {
	prof, err := ProfileByName("small")
	if err != nil {
		t.Fatal(err)
	}
	var kill, hang, isolate, delay, faultFree, allFaulty bool
	for seed := int64(0); seed < 500; seed++ {
		s := GenerateDistScenario(seed, prof)
		if s.Workers < 2 || s.Workers > 4 {
			t.Fatalf("seed %d: fleet size %d outside [2,4]", seed, s.Workers)
		}
		if s.LeaseMS < 300 || s.LeaseMS >= 800 {
			t.Fatalf("seed %d: lease %dms outside [300,800)", seed, s.LeaseMS)
		}
		for id, f := range s.WorkerFaults {
			if f == (dist.Fault{}) {
				t.Fatalf("seed %d: worker %s scripted with the zero fault", seed, id)
			}
			kill = kill || f.KillAfter > 0
			hang = hang || f.Hang
			isolate = isolate || f.Isolate
			delay = delay || f.DelayMS > 0
		}
		faultFree = faultFree || len(s.WorkerFaults) == 0
		allFaulty = allFaulty || len(s.WorkerFaults) == s.Workers
	}
	for name, hit := range map[string]bool{
		"kill": kill, "hang": hang, "isolate": isolate, "delay": delay,
		"fault-free fleet": faultFree, "whole-fleet faults": allFaulty,
	} {
		if !hit {
			t.Errorf("500-seed sweep never generated dist dimension %q", name)
		}
	}
}

// TestDistCampaignPinnedSeed is the dist-mode invariant sweep: seeded
// kill/hang/isolate/delay fleets against the coordinator, every run
// differentially checked against the fault-free oracle. CI runs the same
// sweep wider (cmd/chaos -mode dist) under -race.
func TestDistCampaignPinnedSeed(t *testing.T) {
	e := smallEngine(t)
	runs := 6
	if testing.Short() {
		runs = 2
	}
	rep, err := e.DistCampaign(context.Background(), 20240807, runs, 0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != runs {
		t.Fatalf("campaign executed %d runs, want %d", len(rep.Runs), runs)
	}
	if !rep.Green() {
		for _, r := range rep.Runs {
			for _, v := range r.Violations {
				t.Errorf("run %d (seed %d, faults %v): %s: %s",
					r.Run, r.Seed, r.Faults, v.Invariant, v.Detail)
			}
		}
		t.Fatalf("dist campaign: %d/%d runs violated invariants", rep.Failed, len(rep.Runs))
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Format != FormatV1 || back.Mode != "dist" {
		t.Fatalf("format %q mode %q, want %q + dist", back.Format, back.Mode, FormatV1)
	}
	for i, r := range back.Runs {
		if r.Seed != DeriveSeed(20240807, i) {
			t.Fatalf("run %d seed %d not derivable from root", i, r.Seed)
		}
	}
}

// TestDistFleetDeathScenario is the acceptance scenario for whole-fleet
// loss: every worker is scripted to die or wedge, so the run must fail
// typed (fleet death or attempts exhausted) and the fault-free distributed
// resume — which RunDistScenario performs and asserts — must converge and
// sweep every fenced orphan the dead fleet published.
func TestDistFleetDeathScenario(t *testing.T) {
	e := smallEngine(t)
	s := DistScenario{
		Seed:    7,
		Workers: 2,
		LeaseMS: 400,
		WorkerFaults: map[string]dist.Fault{
			"w0": {KillAfter: 1},
			"w1": {Hang: true, HangAfter: 1},
		},
		Faults: []string{"2 workers, 400ms leases", "worker w0 killed at done 1", "worker w1 wedges after done 1"},
	}
	rep := e.RunDistScenario(context.Background(), s, t.TempDir())
	for _, v := range rep.Violations {
		t.Errorf("%s: %s", v.Invariant, v.Detail)
	}
	if rep.Outcome != "failed-typed" {
		t.Fatalf("outcome %q (error %q), want failed-typed", rep.Outcome, rep.Error)
	}
	if !rep.Resumed {
		t.Fatal("fault-free distributed resume never ran")
	}
}

// TestDistZombieDelayScenario scripts the zombie-writer shape directly: a
// worker behind a slow link with a short lease keeps publishing results
// whose dones arrive after expiry, so the run exercises fencing while the
// healthy worker carries the build — and must still converge.
func TestDistZombieDelayScenario(t *testing.T) {
	e := smallEngine(t)
	s := DistScenario{
		Seed:    11,
		Workers: 2,
		LeaseMS: 300,
		WorkerFaults: map[string]dist.Fault{
			"w1": {DelayMS: 60},
		},
		Faults: []string{"2 workers, 300ms leases", "worker w1 link delay 60ms"},
	}
	rep := e.RunDistScenario(context.Background(), s, t.TempDir())
	for _, v := range rep.Violations {
		t.Errorf("%s: %s", v.Invariant, v.Detail)
	}
	if rep.Outcome == "failed-untyped" {
		t.Fatalf("outcome %q (error %q)", rep.Outcome, rep.Error)
	}
}
