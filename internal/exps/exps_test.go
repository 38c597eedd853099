package exps

import (
	"strconv"
	"strings"
	"testing"
)

// testOpts keeps experiment tests fast while exercising the real pipeline;
// the dataset cache is shared across tests in the package. Under -short the
// datasets shrink to shortScale: every experiment still runs its whole grid
// of configurations, over fewer than half the reads.
var testOpts = Options{Scale: 0.15}

const shortScale = 0.07

// cellFloat parses a numeric report cell.
func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

func runExp(t *testing.T, id string) Report {
	t.Helper()
	opts := testOpts
	if testing.Short() {
		opts.Scale = shortScale
	}
	rep, err := Run(id, opts)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if rep.ID != id || len(rep.Rows) == 0 || len(rep.Header) == 0 {
		t.Fatalf("%s: malformed report %+v", id, rep)
	}
	for i, row := range rep.Rows {
		if len(row) != len(rep.Header) {
			t.Fatalf("%s: row %d has %d cells, header has %d", id, i, len(row), len(rep.Header))
		}
	}
	return rep
}

func TestListAndUnknown(t *testing.T) {
	ids := List()
	if len(ids) != 18 {
		t.Fatalf("registry has %d experiments, want 18", len(ids))
	}
	if _, err := Run("nope", testOpts); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestReportFormat(t *testing.T) {
	rep := Report{
		ID: "x", Title: "t",
		Header: []string{"A", "BB"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"hello"},
	}
	s := rep.Format()
	for _, want := range []string{"== x: t ==", "A", "BB", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Errorf("formatted report missing %q:\n%s", want, s)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	rep := runExp(t, "table1")
	// Bumblebee graph must be several times larger than Chr14's
	// (paper: ~10x), and duplicates must dominate distinct vertices.
	var distinct14, distinctBB, dup14 float64
	for _, row := range rep.Rows {
		switch row[0] {
		case "# Distinct vertices (M)":
			distinct14, distinctBB = cellFloat(t, row[1]), cellFloat(t, row[2])
		case "# Duplicate vertices (M)":
			dup14 = cellFloat(t, row[1])
		}
	}
	if distinctBB < 2*distinct14 {
		t.Errorf("Bumblebee graph (%.2fM) should be much larger than Chr14 (%.2fM)", distinctBB, distinct14)
	}
	if dup14 < 2*distinct14 {
		t.Errorf("duplicates (%.2fM) should far exceed distinct (%.2fM)", dup14, distinct14)
	}
}

func TestTable2Shape(t *testing.T) {
	rep := runExp(t, "table2")
	// Max table size must decrease monotonically with NP.
	var prev float64
	for i, row := range rep.Rows {
		size := cellFloat(t, row[2])
		if i > 0 && size > prev {
			t.Errorf("max table size grew at NP=%s: %.1f > %.1f", row[0], size, prev)
		}
		prev = size
	}
	for _, n := range rep.Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("table2 reported: %s", n)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	rep := runExp(t, "table3")
	byName := map[string][]string{}
	for _, row := range rep.Rows {
		byName[row[0]] = row
	}
	// Paper orderings on the medium dataset.
	phCPU := cellFloat(t, byName["ParaHash-CPU"][1])
	ph2GPU := cellFloat(t, byName["ParaHash-2GPU"][1])
	phAll := cellFloat(t, byName["ParaHash-CPU-2GPU"][1])
	soap := cellFloat(t, byName["SOAP-like"][1])
	bcalm := cellFloat(t, byName["bcalm2-like"][1])
	if !(phAll < ph2GPU && ph2GPU < phCPU) {
		t.Errorf("adding processors must reduce time: %0.1f / %0.1f / %0.1f", phCPU, ph2GPU, phAll)
	}
	if soap <= phCPU {
		t.Errorf("SOAP-like (%.1f) should be slower than ParaHash-CPU (%.1f)", soap, phCPU)
	}
	if bcalm < 5*phAll {
		t.Errorf("bcalm2-like (%.1f) should be several times ParaHash-CPU-2GPU (%.1f)", bcalm, phAll)
	}
	// SOAP must OOM on the big dataset.
	if byName["SOAP-like"][3] != "NA" {
		t.Errorf("SOAP-like on Bumblebee = %s, want NA", byName["SOAP-like"][3])
	}
	// ParaHash memory must undercut SOAP's by a wide margin.
	phMem := cellFloat(t, byName["ParaHash-CPU"][2])
	soapMem := cellFloat(t, byName["SOAP-like"][2])
	if phMem*2 > soapMem {
		t.Errorf("ParaHash memory (%.1fMB) should be well under SOAP's (%.1fMB)", phMem, soapMem)
	}
	// bcalm on Bumblebee must be several times slower than ParaHash-CPU.
	bcalmBB := cellFloat(t, byName["bcalm2-like"][3])
	phBB := cellFloat(t, byName["ParaHash-CPU"][3])
	if bcalmBB < 2*phBB {
		t.Errorf("bcalm2-like Bumblebee (%.1f) should be much slower than ParaHash-CPU (%.1f)", bcalmBB, phBB)
	}
}

func TestFig6Shape(t *testing.T) {
	rep := runExp(t, "fig6")
	// Superkmer count grows with P; CV at P=17 well below CV at P=5.
	firstSk := cellFloat(t, rep.Rows[0][1])
	lastSk := cellFloat(t, rep.Rows[len(rep.Rows)-1][1])
	if lastSk <= firstSk {
		t.Errorf("superkmers should grow with P: %.2f -> %.2f", firstSk, lastSk)
	}
	firstCV := cellFloat(t, rep.Rows[0][4])
	lastCV := cellFloat(t, rep.Rows[len(rep.Rows)-1][4])
	if lastCV >= firstCV/2 {
		t.Errorf("partition-size CV should shrink strongly with P: %.3f -> %.3f", firstCV, lastCV)
	}
}

func TestFig7Shape(t *testing.T) {
	rep := runExp(t, "fig7")
	n := len(rep.Rows)
	cpuFirst, cpuLast := cellFloat(t, rep.Rows[0][2]), cellFloat(t, rep.Rows[n-1][2])
	gpuFirst, gpuLast := cellFloat(t, rep.Rows[0][3]), cellFloat(t, rep.Rows[n-1][3])
	if cpuLast >= cpuFirst || gpuLast >= gpuFirst {
		t.Errorf("hashing time should decrease with NP: CPU %.2f->%.2f GPU %.2f->%.2f",
			cpuFirst, cpuLast, gpuFirst, gpuLast)
	}
	// At high NP the GPU-CPU gap approximates the transfer time.
	gap := cellFloat(t, rep.Rows[n-1][4])
	transfer := cellFloat(t, rep.Rows[n-1][5])
	if gap < 0.5*transfer || gap > 2*transfer {
		t.Errorf("gap (%.2f) should be near transfer (%.2f)", gap, transfer)
	}
}

func TestFig8Shape(t *testing.T) {
	rep := runExp(t, "fig8")
	// Transfer time roughly constant across NP (within 25%).
	var min, max float64
	for i, row := range rep.Rows {
		v := cellFloat(t, row[2])
		if i == 0 {
			min, max = v, v
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max > 1.25*min {
		t.Errorf("transfer should stay ~constant: [%.3f, %.3f]", min, max)
	}
}

func TestFig9Shape(t *testing.T) {
	rep := runExp(t, "fig9")
	// Speedup at 20 threads ~20x, and fitted slope in the note ~ -1.
	last := rep.Rows[len(rep.Rows)-1]
	speedup := cellFloat(t, last[2])
	if speedup < 18 || speedup > 22 {
		t.Errorf("20-thread speedup = %.1f, want ~20", speedup)
	}
	foundSlope := false
	for _, n := range rep.Notes {
		if strings.Contains(n, "slope") {
			foundSlope = true
			var slope float64
			if _, err := fmtSscanfSlope(n, &slope); err != nil {
				t.Fatalf("cannot parse slope from %q", n)
			}
			if slope < -1.1 || slope > -0.85 {
				t.Errorf("slope = %.3f, want ~-1", slope)
			}
		}
	}
	if !foundSlope {
		t.Error("fig9 missing slope note")
	}
}

// fmtSscanfSlope extracts the slope value from the fig9 note.
func fmtSscanfSlope(note string, slope *float64) (int, error) {
	idx := strings.Index(note, "a = ")
	if idx < 0 {
		return 0, strconvError("no slope")
	}
	rest := note[idx+4:]
	end := strings.IndexByte(rest, ' ')
	if end < 0 {
		end = len(rest)
	}
	v, err := strconv.ParseFloat(rest[:end], 64)
	if err != nil {
		return 0, err
	}
	*slope = v
	return 1, nil
}

type strconvError string

func (e strconvError) Error() string { return string(e) }

func TestFig10Shape(t *testing.T) {
	rep := runExp(t, "fig10")
	if len(rep.Rows) != 2 {
		t.Fatalf("fig10 rows = %d", len(rep.Rows))
	}
	phRead, phTotal := cellFloat(t, rep.Rows[0][1]), cellFloat(t, rep.Rows[0][3])
	soapRead, soapTotal := cellFloat(t, rep.Rows[1][1]), cellFloat(t, rep.Rows[1][3])
	if phRead >= soapRead/5 {
		t.Errorf("ParaHash read (%.4f) should be far below SOAP's (%.4f)", phRead, soapRead)
	}
	if phTotal >= soapTotal {
		t.Errorf("ParaHash total (%.4f) should beat SOAP (%.4f)", phTotal, soapTotal)
	}
}

func TestFig11Shape(t *testing.T) {
	rep := runExp(t, "fig11")
	// Every processor must get work in both steps, and real shares must be
	// within 0.15 of ideal.
	for _, row := range rep.Rows {
		if parts := cellFloat(t, row[3]); parts == 0 {
			t.Errorf("%s %s consumed no partitions", row[0], row[1])
		}
		real := cellFloat(t, row[4])
		ideal := cellFloat(t, row[5])
		if real-ideal > 0.15 || ideal-real > 0.15 {
			t.Errorf("%s %s: share %.3f vs ideal %.3f", row[0], row[1], real, ideal)
		}
	}
}

func TestFig12Shape(t *testing.T) {
	rep := runExp(t, "fig12")
	for _, row := range rep.Rows {
		noPipe := cellFloat(t, row[5])
		piped := cellFloat(t, row[6])
		if piped >= noPipe {
			t.Errorf("%s %s: pipelining (%f) did not beat sequential (%f)", row[0], row[1], piped, noPipe)
		}
	}
	// The IO-bound dataset must save a large fraction (paper: ~half).
	var bbSavings []float64
	for _, row := range rep.Rows {
		if row[0] == "Bumblebee" {
			bbSavings = append(bbSavings, cellFloat(t, row[7]))
		}
	}
	for _, s := range bbSavings {
		if s < 25 {
			t.Errorf("Bumblebee pipelining saving %.0f%%, want substantial (~half)", s)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	rep := runExp(t, "fig13")
	byName := map[string][]string{}
	for _, row := range rep.Rows {
		byName[row[0]] = row
	}
	// Real within 35% of estimate everywhere; adding processors reduces
	// Step 2 elapsed time.
	for name, row := range byName {
		for _, pair := range [][2]int{{1, 2}, {3, 4}} {
			real, est := cellFloat(t, row[pair[0]]), cellFloat(t, row[pair[1]])
			if est > 0 && (real < est*0.65 || real > est*1.35) {
				t.Errorf("%s: real %.2f vs est %.2f", name, real, est)
			}
		}
	}
	if cellFloat(t, byName["CPU+2GPU"][3]) >= cellFloat(t, byName["CPU"][3]) {
		t.Error("co-processing should beat CPU-only in Step 2")
	}
	if cellFloat(t, byName["2GPU"][3]) >= cellFloat(t, byName["1GPU"][3]) {
		t.Error("two GPUs should beat one")
	}
}

func TestFig14Shape(t *testing.T) {
	rep := runExp(t, "fig14")
	// Under Case 2, elapsed time is IO-bound: all configs within 25% of
	// each other per step.
	for _, col := range []int{1, 3} {
		var min, max float64
		for i, row := range rep.Rows {
			v := cellFloat(t, row[col])
			if i == 0 {
				min, max = v, v
			}
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if max > 1.25*min {
			t.Errorf("col %d: IO-bound times should be near-constant, got [%.1f, %.1f]", col, min, max)
		}
	}
}

func TestContentionShape(t *testing.T) {
	rep := runExp(t, "contention")
	var reduction float64
	for _, row := range rep.Rows {
		if row[0] == "lock reduction" {
			reduction = cellFloat(t, row[1])
		}
	}
	if reduction < 60 || reduction > 95 {
		t.Errorf("lock reduction = %.1f%%, want ~80%%", reduction)
	}
}

func TestAblationLocking(t *testing.T) {
	rep := runExp(t, "ablation-locking")
	// State transfer must lock on far fewer accesses than the mutex table.
	st := cellFloat(t, rep.Rows[0][2])
	mx := cellFloat(t, rep.Rows[1][2])
	if st >= 0.5 || mx < 1 {
		t.Errorf("locks/access: state-transfer %.3f, mutex %.3f", st, mx)
	}
}

// TestWallClockAblationsCSVRepeats: the two ablations that time the host
// write the same CSV on every run — the wall times live in the notes,
// which -csv leaves out.
func TestWallClockAblationsCSVRepeats(t *testing.T) {
	for _, id := range []string{"ablation-locking", "ablation-presize"} {
		first, second := runExp(t, id), runExp(t, id)
		if first.CSV() != second.CSV() {
			t.Errorf("%s: two runs wrote different CSV:\n%s\n%s", id, first.CSV(), second.CSV())
		}
		if !strings.Contains(strings.Join(first.Notes, "\n"), "host wall-clock") {
			t.Errorf("%s: no wall-clock note: %q", id, first.Notes)
		}
	}
}

func TestAblationEncoding(t *testing.T) {
	rep := runExp(t, "ablation-encoding")
	// Encoded must be ~1/4 of plain; raw kmers far above plain.
	raw := cellFloat(t, rep.Rows[0][2])
	enc := cellFloat(t, rep.Rows[2][2])
	if enc > 0.35 {
		t.Errorf("encoded/plain = %.2f", enc)
	}
	if raw < 2 {
		t.Errorf("raw-kmer blowup = %.2f, want large", raw)
	}
}

func TestAblationPresize(t *testing.T) {
	rep := runExp(t, "ablation-presize")
	if rep.Rows[0][1] != "0" {
		t.Errorf("pre-sized table rebuilt %s times", rep.Rows[0][1])
	}
	if rep.Rows[1][1] == "0" {
		t.Error("grow-from-small should rebuild")
	}
}

func TestAblationExtensions(t *testing.T) {
	rep := runExp(t, "ablation-extensions")
	lost := cellFloat(t, rep.Rows[1][2])
	if lost < 5 || lost > 30 {
		t.Errorf("edge loss without extensions = %.1f%%, want ~10-15%%", lost)
	}
}

func TestReportCSV(t *testing.T) {
	rep := Report{
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1,5", `say "hi"`}, {"2", "3"}},
	}
	got := rep.CSV()
	want := "a,b\n\"1,5\",\"say \"\"hi\"\"\"\n2,3\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestAblationDivergence(t *testing.T) {
	rep := runExp(t, "ablation-divergence")
	for _, row := range rep.Rows {
		div := cellFloat(t, row[1])
		if div < 1 || div > 10 {
			t.Errorf("NP=%s: divergence %.2f out of sane range", row[0], div)
		}
	}
}
