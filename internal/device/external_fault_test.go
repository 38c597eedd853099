package device_test

import (
	"context"
	"fmt"
	"testing"

	"parahash/internal/costmodel"
	"parahash/internal/device"
	"parahash/internal/faultinject"
	"parahash/internal/iosim"
	"parahash/internal/msp"
	"parahash/internal/simulate"
)

// TestSpillRunsPropagatesStoreErrors checks a failed run publication
// surfaces instead of being journalled. (An external test: the fault layer
// imports this package.)
func TestSpillRunsPropagatesStoreErrors(t *testing.T) {
	d, err := simulate.Generate(simulate.TinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	var sks []msp.Superkmer
	for _, rd := range d.Reads {
		sks = msp.SuperkmersFromRead(sks, rd.Bases, 27, 11)
	}
	st := faultinject.WrapStore(iosim.NewStore(costmodel.MediumMemCached))
	errBoom := fmt.Errorf("boom")
	st.FailWritesNTimes("spill/0000/run-0002", 1, errBoom)
	var journalled []string
	cfg := device.ExternalConfig{
		K:           27,
		BufferBytes: 1 << 12,
		SortWorkers: 2,
		Store:       st,
		RunName:     func(run int) string { return fmt.Sprintf("spill/0000/run-%04d", run) },
		Cal:         costmodel.DefaultCalibration(),
		Threads:     4,
		OnRun: func(run int, name string, bytes int64, crc uint32, vertices int64) error {
			journalled = append(journalled, name)
			return nil
		},
	}
	if _, err := device.SpillRuns(context.Background(), sks, cfg); err == nil {
		t.Skip("dataset produced fewer than 3 runs at this buffer size")
	}
	for _, name := range journalled {
		if name == "spill/0000/run-0002" {
			t.Error("failed run was journalled")
		}
	}
}
