package bench

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestIDsCoverPaperArtifacts(t *testing.T) {
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, want := range []string{
		"table1", "table2", "table3", "table4",
		"fig2", "fig3", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"ablation-window", "ablation-workers", "ablation-chunk",
		"ablation-rebag", "ablation-compression", "validate-real",
		"live-tail",
	} {
		if !have[want] {
			t.Errorf("experiment %q not registered", want)
		}
	}
}

func TestTables234(t *testing.T) {
	t2 := runTable(t, "table2")
	if len(t2.Rows) != 7 {
		t.Errorf("table2 rows = %d, Table II has 7 topics", len(t2.Rows))
	}
	t3 := runTable(t, "table3")
	if len(t3.Rows) != 4 {
		t.Errorf("table3 rows = %d", len(t3.Rows))
	}
	t4 := runTable(t, "table4")
	if len(t4.Rows) != 5 {
		t.Errorf("table4 rows = %d", len(t4.Rows))
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func runTable(t *testing.T, id string) *Table {
	t.Helper()
	tab, err := Run(id)
	if err != nil {
		t.Fatalf("Run(%s): %v", id, err)
	}
	if tab.ID != id {
		t.Errorf("table id = %s", tab.ID)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Errorf("%s row %d has %d cells, header has %d", id, i, len(row), len(tab.Header))
		}
	}
	var sb strings.Builder
	tab.Fprint(&sb)
	if !strings.Contains(sb.String(), id) {
		t.Errorf("%s: Fprint missing id", id)
	}
	return tab
}

// ratioCell parses a "N.NNx" improvement cell.
func ratioCell(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
	if err != nil {
		t.Fatalf("bad ratio cell %q: %v", cell, err)
	}
	return v
}

func TestTable1Shape(t *testing.T) {
	tab := runTable(t, "table1")
	if len(tab.Rows) != 5 {
		t.Fatalf("table1 has %d rows", len(tab.Rows))
	}
	// Size and time grow with topic count.
	firstKB, _ := strconv.ParseFloat(tab.Rows[0][1], 64)
	lastKB, _ := strconv.ParseFloat(tab.Rows[4][1], 64)
	if lastKB <= firstKB {
		t.Error("table size did not grow with topics")
	}
	lastMS, _ := strconv.ParseFloat(tab.Rows[4][2], 64)
	if lastMS > 1000 {
		t.Errorf("100k-topic build took %.1fms; paper reports ~36ms", lastMS)
	}
}

func TestFig2Shape(t *testing.T) {
	tab := runTable(t, "fig2")
	if len(tab.Rows) != 4 {
		t.Fatalf("fig2 rows = %d", len(tab.Rows))
	}
	// Last column of DB rows are ratios ≥ their predecessors.
	kv := ratioCell(t, tab.Rows[1][2])
	sql := ratioCell(t, tab.Rows[2][2])
	ts := ratioCell(t, tab.Rows[3][2])
	if !(kv > 20 && sql > kv && ts > 1000) {
		t.Errorf("fig2 ratios kv=%.1f sql=%.1f ts=%.0f out of shape", kv, sql, ts)
	}
}

func TestFig9Shape(t *testing.T) {
	tab := runTable(t, "fig9")
	// Overhead column (index 3) should shrink from first to last row.
	parse := func(cell string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
		if err != nil {
			t.Fatalf("bad overhead cell %q", cell)
		}
		return v
	}
	first := parse(tab.Rows[0][3])
	last := parse(tab.Rows[len(tab.Rows)-1][3])
	if last >= first {
		t.Errorf("ext4 overhead did not shrink with size: %.0f%% → %.0f%%", first, last)
	}
	if first > 60 {
		t.Errorf("worst-case ext4 overhead %.0f%% exceeds the paper's ≈50%%", first)
	}
}

func TestFig10Shape(t *testing.T) {
	tab := runTable(t, "fig10")
	// Every row's improvement ≥ 1; topic C rows larger than topic A rows.
	var cMin, aMax float64
	cMin = 1e9
	for _, row := range tab.Rows {
		r := ratioCell(t, row[4])
		if r < 1 {
			t.Errorf("row %v: BORA slower than baseline", row)
		}
		switch row[1] {
		case "C":
			if r < cMin {
				cMin = r
			}
		case "A":
			if r > aMax {
				aMax = r
			}
		}
	}
	if cMin <= aMax {
		t.Errorf("topic C improvements (min %.1fx) should exceed topic A (max %.1fx)", cMin, aMax)
	}
}

func TestFig11Fig12AllAppsWin(t *testing.T) {
	for _, id := range []string{"fig11", "fig12"} {
		tab := runTable(t, id)
		for _, row := range tab.Rows {
			if r := ratioCell(t, row[4]); r < 1.2 {
				t.Errorf("%s %v: improvement %.2fx below paper's ≥50%%", id, row[:2], r)
			}
		}
	}
}

func TestFig13Shape(t *testing.T) {
	tab := runTable(t, "fig13")
	var best float64
	for _, row := range tab.Rows {
		if r := ratioCell(t, row[4]); r > best {
			best = r
		}
		if r := ratioCell(t, row[4]); r < 1 {
			t.Errorf("row %v: BORA slower", row)
		}
	}
	if best < 5 {
		t.Errorf("best time-query improvement %.1fx; paper reports up to 11x", best)
	}
}

func TestFig14Shape(t *testing.T) {
	tab := runTable(t, "fig14")
	for _, row := range tab.Rows {
		if r := ratioCell(t, row[4]); r < 1 {
			t.Errorf("row %v: BORA slower", row)
		}
	}
}

func TestFig15Fig16Shape(t *testing.T) {
	tab := runTable(t, "fig15")
	var cBest float64
	for _, row := range tab.Rows {
		r := ratioCell(t, row[4])
		if r < 1 {
			t.Errorf("fig15 row %v: BORA slower", row)
		}
		if row[1] == "topic C" && r > cBest {
			cBest = r
		}
	}
	if cBest < 10 {
		t.Errorf("PVFS camera_info best improvement %.1fx; paper reports ≈30x", cBest)
	}
	tab16 := runTable(t, "fig16")
	for _, row := range tab16.Rows {
		if r := ratioCell(t, row[4]); r < 1 {
			t.Errorf("fig16 row %v: BORA slower", row)
		}
	}
}

func TestFig17Shape(t *testing.T) {
	tab := runTable(t, "fig17")
	if len(tab.Rows) != 6 {
		t.Fatalf("fig17 rows = %d", len(tab.Rows))
	}
	last := tab.Rows[len(tab.Rows)-1] // 42GB × 100 robots
	open := ratioCell(t, strings.TrimSuffix(last[4], "x")+"x")
	if open < 500 {
		t.Errorf("100×42GB open improvement = %.0fx; paper reports 3,113x", open)
	}
	query := ratioCell(t, last[7])
	if query < 3 {
		t.Errorf("100×42GB query improvement = %.1fx; paper reports >10x overall", query)
	}
}

func TestFig18Shape(t *testing.T) {
	tab := runTable(t, "fig18")
	for _, row := range tab.Rows {
		if r := ratioCell(t, row[4]); r < 1 {
			t.Errorf("fig18 row %v: BORA slower", row)
		}
	}
}

func TestFig3Runs(t *testing.T) {
	tab := runTable(t, "fig3")
	for _, row := range tab.Rows {
		if r := ratioCell(t, row[5]); r < 1.2 || r > 4 {
			t.Errorf("fig3 %s/%s: plfs ratio %.2fx outside the paper's ≈2x band", row[0], row[1], r)
		}
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation-workers writes real bags")
	}
	win := runTable(t, "ablation-window")
	if len(win.Rows) != 4 {
		t.Errorf("ablation-window rows = %d", len(win.Rows))
	}
	chunk := runTable(t, "ablation-chunk")
	// Baseline open shrinks as chunks grow; BORA open stays flat.
	firstChunks, _ := strconv.Atoi(chunk.Rows[0][1])
	lastChunks, _ := strconv.Atoi(chunk.Rows[len(chunk.Rows)-1][1])
	if lastChunks >= firstChunks {
		t.Error("chunk count did not shrink with threshold")
	}
	workers := runTable(t, "ablation-workers")
	if len(workers.Rows) != 4 {
		t.Errorf("ablation-workers rows = %d", len(workers.Rows))
	}
}

func TestAblationRebagAndCompression(t *testing.T) {
	if testing.Short() {
		t.Skip("writes real bags")
	}
	reb := runTable(t, "ablation-rebag")
	for _, row := range reb.Rows {
		if r := ratioCell(t, row[3]); r < 1 {
			t.Errorf("rebag ablation: BORA slower on %q (%.2fx)", row[0], r)
		}
	}
	comp := runTable(t, "ablation-compression")
	if len(comp.Rows) != 2 {
		t.Fatalf("compression rows = %d", len(comp.Rows))
	}
	noneBytes, _ := strconv.Atoi(comp.Rows[0][1])
	gzBytes, _ := strconv.Atoi(comp.Rows[1][1])
	if gzBytes >= noneBytes {
		t.Errorf("gz bag (%d) not smaller than uncompressed (%d)", gzBytes, noneBytes)
	}
}

func TestValidateReal(t *testing.T) {
	if testing.Short() {
		t.Skip("writes real bags and measures wall clock")
	}
	tab := runTable(t, "validate-real")
	for _, row := range tab.Rows {
		if r := ratioCell(t, row[3]); r < 1 {
			t.Errorf("real measurement: BORA slower on %q (%.2fx)", row[0], r)
		}
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	tables, err := RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(IDs()) {
		t.Errorf("RunAll returned %d tables, want %d", len(tables), len(IDs()))
	}
}

func TestFormatterHelpers(t *testing.T) {
	if fmtDur(90*time.Second) != "1.5m" {
		t.Errorf("fmtDur(90s) = %s", fmtDur(90*time.Second))
	}
	if fmtDur(1500*time.Millisecond) != "1.50s" {
		t.Errorf("fmtDur = %s", fmtDur(1500*time.Millisecond))
	}
	if fmtDur(2500*time.Microsecond) != "2.50ms" {
		t.Errorf("fmtDur = %s", fmtDur(2500*time.Microsecond))
	}
	if fmtDur(5*time.Microsecond) != "5.0µs" {
		t.Errorf("fmtDur = %s", fmtDur(5*time.Microsecond))
	}
	if fmtDur(300*time.Nanosecond) != "300ns" {
		t.Errorf("fmtDur = %s", fmtDur(300*time.Nanosecond))
	}
	if fmtRatio(2*time.Second, time.Second) != "2.00x" {
		t.Error("fmtRatio wrong")
	}
	if fmtRatio(time.Second, 0) != "inf" {
		t.Error("fmtRatio zero divisor")
	}
	if fmtGB(2_900_000_000) != "2.9GB" {
		t.Errorf("fmtGB = %s", fmtGB(2_900_000_000))
	}
}
