package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestTableString(t *testing.T) {
	tb := &Table{
		Name:   "t",
		Title:  "demo",
		Header: []string{"a", "longer"},
	}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	s := tb.String()
	if !strings.Contains(s, "# t: demo") {
		t.Fatal("missing title line")
	}
	// Title + header + separator + two data rows.
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5", len(lines))
	}
	if !strings.HasPrefix(lines[2], "---") {
		t.Fatal("missing separator")
	}
}

func TestByID(t *testing.T) {
	if ByID("fig8-1") == nil || ByID("table8-1") == nil {
		t.Fatal("known experiments not found")
	}
	if ByID("nope") != nil {
		t.Fatal("unknown id resolved")
	}
	seen := map[string]bool{}
	for _, e := range All {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if f2(1.234) != "1.23" || f3(1.2345) != "1.234" {
		t.Fatal("fixed-point formatting wrong")
	}
	nan := 0.0
	nan /= nan
	if f2(nan) != "-" || f3(nan) != "-" {
		t.Fatal("NaN should render as -")
	}
}

// parse reads a numeric cell, tolerating the "-" placeholder.
func parse(t *testing.T, cell string) (float64, bool) {
	t.Helper()
	if cell == "-" {
		return 0, false
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(cell, "+"), "%"), 64)
	if err != nil {
		t.Fatalf("unparseable cell %q", cell)
	}
	return v, true
}

func TestFigB2Semantics(t *testing.T) {
	tables := FigB_2(DefaultConfig())
	if len(tables) != 1 {
		t.Fatal("want one table")
	}
	rows := tables[0].Rows
	if len(rows) != 8 {
		t.Fatalf("want 8 SNR rows, got %d", len(rows))
	}
	prev := -1.0
	for _, r := range rows {
		rate, ok := parse(t, r[1])
		if !ok || rate <= 0 {
			t.Fatalf("missing rate in row %v", r)
		}
		if rate < prev*0.7 {
			t.Fatalf("rate collapsed between rows: %v", rows)
		}
		prev = rate
	}
	// Endpoint check against the paper's Fig B-2 shape: ≈0.5-1 b/s at
	// 0 dB rising to ≈3 b/s at 14 dB.
	first, _ := parse(t, rows[0][1])
	last, _ := parse(t, rows[len(rows)-1][1])
	if first > 1.5 || last < 2 {
		t.Fatalf("FigB-2 endpoints off: %.2f at 0 dB, %.2f at 14 dB", first, last)
	}
}

func TestHashAblationEqualPerformance(t *testing.T) {
	tables := HashAblation(DefaultConfig())
	rows := tables[0].Rows
	if len(rows) != 3 {
		t.Fatalf("want 3 hash rows")
	}
	lo, hi := 1e9, 0.0
	for _, r := range rows {
		rate, _ := parse(t, r[1])
		if rate < lo {
			lo = rate
		}
		if rate > hi {
			hi = rate
		}
	}
	if hi > lo*1.5 {
		t.Fatalf("hash choice changed rate by more than 50%%: %.3f vs %.3f", lo, hi)
	}
}

func TestBSCSemantics(t *testing.T) {
	tables := BSCExtra(DefaultConfig())
	for _, r := range tables[0].Rows {
		frac, ok := parse(t, r[3])
		if !ok {
			t.Fatalf("missing fraction in %v", r)
		}
		if frac <= 0.3 || frac > 1.02 {
			t.Fatalf("BSC fraction of capacity %v implausible", r)
		}
	}
}

func TestTable81DensityIndependence(t *testing.T) {
	tables := Table8_1(DefaultConfig())
	rows := tables[0].Rows
	if len(rows) != 4 {
		t.Fatal("want 4 constellations")
	}
	lo, hi := 1e9, 0.0
	for _, r := range rows {
		mean, _ := parse(t, r[1])
		tail, _ := parse(t, r[2])
		if tail <= mean {
			t.Fatalf("99.99%% %.2f not above mean %.2f", tail, mean)
		}
		if mean < lo {
			lo = mean
		}
		if mean > hi {
			hi = mean
		}
	}
	if hi-lo > 0.5 {
		t.Fatalf("PAPR means spread %.2f dB across constellations; paper reports ≈0.05", hi-lo)
	}
}

func TestFig87DepthOrdering(t *testing.T) {
	tables := Fig8_7(DefaultConfig())
	rows := tables[0].Rows
	var sumD1, sumD4 float64
	for _, r := range rows {
		d1, ok1 := parse(t, r[1])
		d4, ok4 := parse(t, r[4])
		if !ok1 || !ok4 {
			t.Fatalf("missing gaps in %v", r)
		}
		sumD1 += d1
		sumD4 += d4
	}
	// Gap is negative; d=1 should be closer to zero on average (Fig 8-7).
	if sumD1 <= sumD4 {
		t.Fatalf("depth ordering inverted: d=1 total gap %.2f vs d=4 %.2f", sumD1, sumD4)
	}
}

func TestFig89TailSweep(t *testing.T) {
	tables := Fig8_9(DefaultConfig())
	for _, r := range tables[0].Rows {
		for i := 1; i < len(r); i++ {
			if _, ok := parse(t, r[i]); !ok {
				t.Fatalf("missing gap at %v", r)
			}
		}
	}
}

func TestFig82RatelessCompetitive(t *testing.T) {
	tables := Fig8_2(DefaultConfig())
	for _, r := range tables[0].Rows {
		rateless, _ := parse(t, r[2])
		fixed, _ := parse(t, r[3])
		if fixed > rateless*1.2 {
			t.Fatalf("fixed rate %.2f far above rateless %.2f at SNR %s", fixed, rateless, r[0])
		}
	}
}

func TestFig86BudgetHelps(t *testing.T) {
	tables := Fig8_6(DefaultConfig())
	rows := tables[0].Rows
	// For k=4 (column 4), the largest budget should beat the smallest.
	small, _ := parse(t, rows[0][4])
	large, _ := parse(t, rows[len(rows)-1][4])
	if large <= small {
		t.Fatalf("k=4 fraction did not improve with budget: %.3f → %.3f", small, large)
	}
}

// Heavy experiments run only outside -short; they are exercised in full
// by the bench harness anyway.

func TestFig81Flagship(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy; run without -short")
	}
	tables := Fig8_1(DefaultConfig())
	rate := tables[0]
	for _, r := range rate.Rows {
		shannon, _ := parse(t, r[1])
		sp, ok := parse(t, r[2])
		if !ok {
			t.Fatalf("missing spinal rate at %v", r)
		}
		if sp > shannon*1.05 {
			t.Fatalf("spinal rate %.2f above Shannon %.2f", sp, shannon)
		}
		// The flagship ordering: spinal ≥ every baseline at every SNR
		// (columns: raptor, strider, strider+, LDPC envelope).
		for _, col := range []int{4, 5, 6, 7} {
			base, ok := parse(t, r[col])
			if ok && base > sp*1.05 {
				t.Errorf("baseline col %d (%.2f) beats spinal (%.2f) at SNR %s", col, base, sp, r[0])
			}
		}
	}
}

func TestFig84FadingOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy; run without -short")
	}
	tables := Fig8_4(DefaultConfig())
	for _, r := range tables[0].Rows {
		cray, _ := parse(t, r[1])
		for _, col := range []int{2, 4, 6} { // spinal columns
			sp, ok := parse(t, r[col])
			if ok && sp > cray*1.1 {
				t.Fatalf("spinal fading rate %.2f above fading capacity %.2f", sp, cray)
			}
			st, okS := parse(t, r[col+1]) // paired strider+ column
			if ok && okS && st > sp*1.1 {
				t.Errorf("strider+ (%.2f) beats spinal (%.2f) on fading at SNR %s", st, sp, r[0])
			}
		}
	}
}

func TestFig812LongerBlocksWiderGap(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy; run without -short")
	}
	tables := Fig8_12(DefaultConfig())
	rows := tables[0].Rows
	first, _ := parse(t, rows[0][4])          // avg gap at n=64
	last, _ := parse(t, rows[len(rows)-1][4]) // avg gap at largest n
	if last > first+0.5 {                     // gaps are negative
		t.Fatalf("longer blocks should not shrink the gap: n=64 avg %.2f vs largest %.2f", first, last)
	}
}

func TestFig811SymbolsDropWithSNR(t *testing.T) {
	tables := Fig8_11(DefaultConfig())
	rows := tables[0].Rows
	firstP50, _ := parse(t, rows[0][3])
	lastP50, _ := parse(t, rows[len(rows)-1][3])
	if lastP50 >= firstP50 {
		t.Fatalf("median symbols should fall with SNR: %.0f → %.0f", firstP50, lastP50)
	}
}

func TestHWModelCalibration(t *testing.T) {
	tables := HWModel(DefaultConfig())
	if len(tables) != 2 {
		t.Fatal("want two tables")
	}
	fpga, _ := parse(t, tables[0].Rows[0][3])
	asic, _ := parse(t, tables[0].Rows[1][3])
	if fpga < 8 || fpga > 13 {
		t.Fatalf("FPGA %.1f Mb/s, want ≈10", fpga)
	}
	if asic < 40 || asic > 65 {
		t.Fatalf("ASIC %.1f Mb/s, want ≈50", asic)
	}
	// Scaling table saturates: last two rows equal throughput.
	rows := tables[1].Rows
	a, _ := parse(t, rows[len(rows)-2][3])
	b, _ := parse(t, rows[len(rows)-1][3])
	if a != b {
		t.Fatalf("worker scaling did not saturate: %.2f vs %.2f", a, b)
	}
}

func TestAttemptAblationOrdering(t *testing.T) {
	tables := AttemptAblation(DefaultConfig())
	for _, r := range tables[0].Rows {
		perSym, _ := parse(t, r[1])
		perPass, _ := parse(t, r[3])
		if perPass > perSym*1.05 {
			t.Fatalf("per-pass attempts (%.2f) beat per-symbol (%.2f) at SNR %s",
				perPass, perSym, r[0])
		}
	}
	// At 25 dB the per-symbol gain must be material (>20%).
	last := tables[0].Rows[len(tables[0].Rows)-1]
	perSym, _ := parse(t, last[1])
	perPass, _ := parse(t, last[3])
	if perSym < perPass*1.2 {
		t.Fatalf("per-symbol attempts gain too small at high SNR: %.2f vs %.2f", perSym, perPass)
	}
}

func TestScenarioGoodputOrdering(t *testing.T) {
	tables := ScenarioGoodput(DefaultConfig())
	rows := tables[0].Rows
	byPolicy := map[string][]string{}
	for _, r := range rows {
		byPolicy[r[0]] = r
	}
	fixed, _ := parse(t, byPolicy["fixed"][3])
	tracking, _ := parse(t, byPolicy["tracking"][3])
	if tracking <= fixed {
		t.Fatalf("tracking goodput %.3f not strictly above fixed %.3f:\n%s",
			tracking, fixed, tables[0])
	}
	if byPolicy["fixed"][2] == "0%" {
		t.Fatalf("fixed pacing had no outages — deadline lost its teeth:\n%s", tables[0])
	}
	if byPolicy["tracking"][2] != "0%" {
		t.Fatalf("tracking pacing suffered outages:\n%s", tables[0])
	}
}

func TestFeedbackGoodputOrdering(t *testing.T) {
	tables := FeedbackGoodput(DefaultConfig())
	byRow := map[string][]string{}
	for _, r := range tables[0].Rows {
		byRow[r[0]+"/"+r[1]] = r
	}
	fixed8, _ := parse(t, byRow["delay 8/fixed"][4])
	tracking8, _ := parse(t, byRow["delay 8/tracking"][4])
	if tracking8 <= fixed8 {
		t.Fatalf("at 8-round ack delay, tracking goodput %.3f not strictly above fixed %.3f:\n%s",
			tracking8, fixed8, tables[0])
	}
	if lossy := byRow["loss 30% (delay 2)/tracking"]; lossy[6] == "0" || lossy[7] == "0" {
		t.Fatalf("lossy-ack row shows no ARQ activity (retx=%s, acks lost=%s):\n%s",
			lossy[6], lossy[7], tables[0])
	}
	// Half-duplex accounting charges reverse airtime: the row must show
	// ack symbols and a goodput strictly below its free-ack twin at the
	// same 2-round delay.
	hd := byRow["delay 2, half-duplex/tracking"]
	if hd[8] == "0" {
		t.Fatalf("half-duplex row charged no ack symbols:\n%s", tables[0])
	}
	hdGoodput, _ := parse(t, hd[4])
	free2, _ := parse(t, byRow["delay 2/tracking"][4])
	if hdGoodput >= free2 {
		t.Fatalf("half-duplex goodput %.3f not below free-ack %.3f at delay 2:\n%s",
			hdGoodput, free2, tables[0])
	}
}

func TestGEChannelReliability(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy; run without -short")
	}
	tables := GEChannel(DefaultConfig())
	for _, r := range tables[0].Rows {
		rateless, _ := parse(t, r[1])
		if rateless <= 0 {
			t.Fatalf("no rateless throughput at P(bad)=%s", r[0])
		}
		if r[3] != "0" {
			t.Errorf("rateless failures at P(bad)=%s: %s", r[0], r[3])
		}
	}
}
