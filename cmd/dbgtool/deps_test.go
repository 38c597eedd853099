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
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	out, err := exec.Command(gobin, "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	deps := strings.Fields(string(out))
	for _, pkg := range deps {
		switch pkg {
		case "net", "net/http", "crypto/tls", "runtime/pprof":
			t.Errorf("dbgtool links %s (%d packages in its closure)", pkg, len(deps))
		}
	}
}
