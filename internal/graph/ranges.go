package graph

import (
	"runtime"
	"sync"
)

// A sorted PHDG file splits into contiguous pieces that are independent: by
// position for File.CheckSorted, by key for MergeFiles, whose key ranges cut
// every source at the same k-mer. The passes over those pieces share the two
// functions below, so every such pass picks its piece count and reports its
// failures the same way.

// minRangeRecords is the fewest records a range of a split pass is given
// (768 KiB of records): below it, starting a goroutine and cutting the range
// cost more than its share of the pass saves.
const minRangeRecords = 1 << 14

// maxRanges bounds a split pass however many processors there are, so the
// share of a fixed buffer a range gets stays whole pages and records.
const maxRanges = 64

// rangesFor returns how many ranges a pass over records splits into: one per
// processor the scheduler runs goroutines on (GOMAXPROCS), none under
// minRangeRecords, and always at least one.
func rangesFor(records int) int {
	return max(1, min(runtime.GOMAXPROCS(0), records/minRangeRecords, maxRanges))
}

// eachRange runs fn(r) for every r in [0, ranges) at once — range 0 on the
// calling goroutine — and returns the error of the lowest range that failed:
// when the ranges are the pieces of a file in order, that is the error a
// serial pass over the file meets first.
func eachRange(ranges int, fn func(r int) error) error {
	errs := make([]error, ranges)
	var wg sync.WaitGroup
	for r := 1; r < ranges; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = fn(r)
		}()
	}
	errs[0] = fn(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
