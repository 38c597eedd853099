package chaos

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

func TestServerScenarioGenerationIsDeterministic(t *testing.T) {
	prof, err := ProfileByName("small")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 50; seed++ {
		a := GenerateServerScenario(seed, prof)
		b := GenerateServerScenario(seed, prof)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: server scenario not deterministic:\n%+v\n%+v", seed, a, b)
		}
	}
}

func TestServerScenarioSweepCoversEveryDimension(t *testing.T) {
	prof, err := ProfileByName("small")
	if err != nil {
		t.Fatal(err)
	}
	var kill, drain, none, faults, budget, multiJob, faultFree bool
	for seed := int64(0); seed < 500; seed++ {
		s := GenerateServerScenario(seed, prof)
		switch s.Disrupt {
		case "kill":
			kill = true
		case "drain":
			drain = true
		case "none":
			none = true
		default:
			t.Fatalf("seed %d: unknown disruption %q", seed, s.Disrupt)
		}
		if s.Disrupt != "none" && (s.StallHit < 1 || s.StallHit > prof.Partitions) {
			t.Fatalf("seed %d: stall hit %d outside [1,%d]", seed, s.StallHit, prof.Partitions)
		}
		faults = faults || len(s.Plans) > 0
		budget = budget || s.MemoryBudgetBytes > 0
		multiJob = multiJob || s.Jobs > 1
		faultFree = faultFree || len(s.Plans) == 0 && s.MemoryBudgetBytes == 0 && s.Disrupt == "none"
	}
	for name, hit := range map[string]bool{
		"kill": kill, "drain": drain, "no-disruption": none,
		"store-faults": faults, "memory-budget": budget,
		"multi-job": multiJob, "fault-free baseline": faultFree,
	} {
		if !hit {
			t.Errorf("500-seed sweep never generated server dimension %q", name)
		}
	}
}

// TestServerCampaignPinnedSeed is the server-mode invariant sweep: seeded
// kill/drain/restart scenarios against the in-process job-lifecycle
// manager, every completed job differentially checked against the
// fault-free oracle. CI runs the same sweep wider (cmd/chaos -mode server)
// under -race.
func TestServerCampaignPinnedSeed(t *testing.T) {
	e := smallEngine(t)
	runs := 6
	if testing.Short() {
		runs = 2
	}
	rep, err := e.ServerCampaign(context.Background(), 20240807, runs, 0, t.TempDir())
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
		t.Fatalf("server campaign: %d/%d runs violated invariants", rep.Failed, len(rep.Runs))
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Format != FormatV1 || back.Mode != "server" {
		t.Fatalf("format %q mode %q, want %q + server", back.Format, back.Mode, FormatV1)
	}
	for i, r := range back.Runs {
		if r.Seed != DeriveSeed(20240807, i) {
			t.Fatalf("run %d seed %d not derivable from root", i, r.Seed)
		}
	}
}

// TestServerKillScenario is the acceptance scenario for the SIGKILL model:
// two jobs, the victim wedged mid-Step-2 and killed with claims
// journalled, then a restarted manager must resume it to a byte-identical
// graph — all of which RunServerScenario asserts as invariants.
func TestServerKillScenario(t *testing.T) {
	e := smallEngine(t)
	s := ServerScenario{
		Seed:     3,
		Jobs:     2,
		Disrupt:  "kill",
		StallHit: 3,
		Faults:   []string{"2 jobs", "kill once j0001 journals 3 step 2 claims"},
	}
	rep := e.RunServerScenario(context.Background(), s, t.TempDir())
	if len(rep.Violations) != 0 {
		t.Fatalf("kill scenario violated invariants: %+v", rep.Violations)
	}
	if rep.Outcome != "completed" || !rep.Resumed {
		t.Fatalf("outcome %q resumed %v, want completed + resumed", rep.Outcome, rep.Resumed)
	}
}

// TestServerDrainScenario is the graceful counterpart: the victim is
// checkpointed back to queued by a drain and resumed byte-identically by
// the next manager.
func TestServerDrainScenario(t *testing.T) {
	e := smallEngine(t)
	s := ServerScenario{
		Seed:     4,
		Jobs:     1,
		Disrupt:  "drain",
		StallHit: 2,
		Faults:   []string{"1 jobs", "drain once j0001 journals 2 step 2 claims"},
	}
	rep := e.RunServerScenario(context.Background(), s, t.TempDir())
	if len(rep.Violations) != 0 {
		t.Fatalf("drain scenario violated invariants: %+v", rep.Violations)
	}
	if rep.Outcome != "completed" || !rep.Resumed {
		t.Fatalf("outcome %q resumed %v, want completed + resumed", rep.Outcome, rep.Resumed)
	}
}
