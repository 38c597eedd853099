package storetest_test

import (
	"errors"
	"io"
	"testing"

	"parahash/internal/costmodel"
	"parahash/internal/iosim"
	"parahash/internal/store"
	"parahash/internal/store/storetest"
)

// TestPowerLossConformance holds the power-loss wrapper to the contract it
// wraps: a build must not be able to tell it from the store underneath.
func TestPowerLossConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) store.PartitionStore {
		return storetest.NewPowerLoss(iosim.NewStore(costmodel.MediumMemCached))
	})
}

// TestPowerLossCut pins which files a cut may damage: only those published
// volatile and not synced since.
func TestPowerLossCut(t *testing.T) {
	for _, truncate := range []bool{false, true} {
		inner := iosim.NewStore(costmodel.MediumMemCached)
		p := storetest.NewPowerLoss(inner)
		write := func(create func(string) (io.WriteCloser, error), name string) {
			t.Helper()
			w, err := create(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.WriteString(w, "0123456789"); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		write(p.Create, "durable")
		write(p.CreateVolatile, "synced")
		write(p.CreateVolatile, "at-risk")
		write(p.CreateVolatile, "removed")
		if err := p.Sync("synced"); err != nil {
			t.Fatal(err)
		}
		if err := inner.Remove("removed"); err != nil {
			t.Fatal(err)
		}
		damaged, err := p.Cut(truncate)
		if err != nil {
			t.Fatal(err)
		}
		if len(damaged) != 2 || damaged[0] != "at-risk" || damaged[1] != "removed" {
			t.Fatalf("truncate=%v: damaged %v, want [at-risk removed]", truncate, damaged)
		}
		for _, name := range []string{"durable", "synced"} {
			if n, err := inner.Size(name); err != nil || n != 10 {
				t.Errorf("truncate=%v: %s after the cut: size %d, err %v", truncate, name, n, err)
			}
		}
		n, err := inner.Size("at-risk")
		if truncate && (err != nil || n != 5) {
			t.Errorf("truncated file: size %d, err %v, want 5 bytes", n, err)
		}
		if !truncate && !errors.Is(err, store.ErrNotFound) {
			t.Errorf("dropped file: err = %v, want ErrNotFound", err)
		}
	}
}
