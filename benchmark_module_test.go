package parahash_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleBuilds compiles benchmark/. It is a Go module of its
// own, so `go build ./... && go test ./...` never sees it, and a signature
// it depends on (benchmark/README.md lists them) could move with tier-1
// green and the benchmark driver the first to find out. The module requires
// nothing outside this repository, so this works offline.
func TestBenchmarkModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a second module")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH")
	}
	for _, args := range [][]string{
		{"vet", "-C", "benchmark", "."},
		{"build", "-C", "benchmark", "-o", os.DevNull, "."},
	} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
}
