package chaos

// FormatV1 identifies the chaos campaign report schema. The format string
// is versioned exactly like parahash.metrics/v1: consumers dispatch on it,
// and any breaking change to the schema bumps the suffix.
const FormatV1 = "parahash.chaos/v1"

// Violation is one broken invariant in one run.
type Violation struct {
	// Invariant names the contract that broke: "byte-identical",
	// "typed-error", "consistent-checkpoint", "resume-converges",
	// "gate-balance" or "goroutine-leak" in build mode; server mode adds
	// "server-lifecycle", "server-recovery", "journal-consistent",
	// "job-outcome" and "query-serving"; dist mode adds "dist-lifecycle",
	// "dist-governance" and "lease-clean".
	Invariant string `json:"invariant"`
	// Detail is the human-readable evidence.
	Detail string `json:"detail"`
}

// RunReport is one scenario's outcome. Seed alone replays it:
// `cmd/chaos -replay -seed <seed> -profile <profile>`.
type RunReport struct {
	// Run is the campaign-relative index.
	Run int `json:"run"`
	// Seed is this run's scenario seed (already derived from the root).
	// Encoded as a JSON string: seeds use the full int64 range, and a
	// numeric encoding silently loses low digits past 2^53 in jq/JS
	// consumers — a rounded seed replays a different scenario.
	Seed int64 `json:"seed,string"`
	// Faults describes the generated schedule.
	Faults []string `json:"faults"`
	// Outcome is "completed", "failed-typed" or "failed-untyped" in build
	// mode; "completed" or "failed" in server mode (where any non-done job
	// is also a "job-outcome" violation).
	Outcome string `json:"outcome"`
	// Error and ErrorClass carry a failed build's error text and its
	// matched classification. A replay reproduces ErrorClass, not always
	// Error: the text may name counts that depend on when the fault landed
	// ("6 of 10 partitions failed" in one replay, "8 of 10" in the next).
	// Outcome, ErrorClass, Faults and Resumed are the replay-stable fields.
	Error      string `json:"error,omitempty"`
	ErrorClass string `json:"error_class,omitempty"`
	// Resumed reports that the post-failure fault-free resume ran.
	Resumed bool `json:"resumed,omitempty"`
	// Violations lists every broken invariant (empty on a green run).
	Violations []Violation `json:"violations,omitempty"`
	// KeptDir is the checkpoint directory preserved for debugging when the
	// run violated an invariant (green runs' directories are removed).
	KeptDir string `json:"kept_dir,omitempty"`
	// Seconds is the run's wall-clock cost, including the differential
	// resume check.
	Seconds float64 `json:"seconds"`
}

// Report is a whole campaign in the parahash.chaos/v1 schema.
type Report struct {
	Format string `json:"format"`
	// Mode is "build" (direct pipeline builds), "server" (the parahashd
	// job-lifecycle manager under kill/drain/restart) or "dist" (the
	// coordinator/worker distributed build under process faults).
	Mode     string      `json:"mode,omitempty"`
	Profile  string      `json:"profile"`
	RootSeed int64       `json:"root_seed,string"`
	Started  string      `json:"started"`
	Finished string      `json:"finished"`
	Passed   int         `json:"passed"`
	Failed   int         `json:"failed"`
	Runs     []RunReport `json:"runs"`
}

// Green reports a campaign with zero invariant violations.
func (r *Report) Green() bool { return r.Failed == 0 }
