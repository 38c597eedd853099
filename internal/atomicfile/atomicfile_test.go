package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// TestWriteDurableFailureKeepsPreviousFile fails each step of the publish in
// turn: the previous content must stay under the name, no ".tmp" may be left,
// and the failing step's error must reach the caller.
func TestWriteDurableFailureKeepsPreviousFile(t *testing.T) {
	boom := errors.New("boom")
	steps := []struct {
		name string
		arm  func()
	}{
		{"create", func() { createFile = func(string) (*os.File, error) { return nil, boom } }},
		{"write", nil}, // failed through the write callback
		{"sync", func() { syncFile = func(*os.File) error { return boom } }},
		{"close", func() {
			closeFile = func(f *os.File) error {
				f.Close()
				return boom
			}
		}},
		{"rename", func() { renameFile = func(string, string) error { return boom } }},
	}
	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "state.json")
			if err := WriteDurable(path, writeString("old")); err != nil {
				t.Fatal(err)
			}
			write := writeString("new")
			if step.arm != nil {
				t.Cleanup(func() {
					createFile, syncFile, closeFile, renameFile = os.Create, (*os.File).Sync, (*os.File).Close, os.Rename
				})
				step.arm()
			} else {
				write = func(io.Writer) error { return boom }
			}
			if err := WriteDurable(path, write); !errors.Is(err, boom) {
				t.Fatalf("err = %v, want the %s failure", err, step.name)
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != "old" {
				t.Fatalf("after a failed %s the file holds %q (%v), want the previous content", step.name, got, err)
			}
			if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
				t.Fatalf("a failed %s left the temporary file behind (%v)", step.name, err)
			}
		})
	}
}

func TestWriteDurableReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	for _, content := range []string{"first", "second, longer", "3"} {
		if err := WriteDurable(path, writeString(content)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != content {
			t.Fatalf("file holds %q (%v), want %q", got, err, content)
		}
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind (%v)", err)
	}
}
