package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestQueryPathLinksNoNetwork pins what a lookup starts up: every package
// in dbgtool's import closure is initialised before the first answer, and
// the HTTP stack alone once doubled that closure. A handler or profiling
// hook that needs one of these belongs in internal/server or a command,
// never in a package that core (and so dbgtool) links.
func TestQueryPathLinksNoNetwork(t *testing.T) {
	deps := listDeps(t)
	for _, pkg := range deps {
		switch pkg {
		case "net", "net/http", "crypto/tls", "runtime/pprof":
			t.Errorf("dbgtool links %s (%d packages in its closure)", pkg, len(deps))
		}
	}
}

// TestQueryPathLinksNoCheckpointCode keeps dbgtool the graph-file tool: the
// checkpoint code (scrub is parahash's) and what it starts up — the
// manifest's JSON and hashing, a regexp compiled at init — stay out of a
// lookup's closure, which is about 70 packages.
func TestQueryPathLinksNoCheckpointCode(t *testing.T) {
	deps := listDeps(t)
	for _, pkg := range deps {
		switch pkg {
		case "parahash/internal/core", "parahash/internal/manifest", "regexp", "encoding/json", "crypto/sha256":
			t.Errorf("dbgtool links %s (%d packages in its closure)", pkg, len(deps))
		}
	}
}

// listDeps returns dbgtool's import closure, skipping the test where no go
// tool is on PATH.
func listDeps(t *testing.T) []string {
	t.Helper()
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	out, err := exec.Command(gobin, "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	return strings.Fields(string(out))
}
