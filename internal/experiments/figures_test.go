package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestFig1SymbolConstruction(t *testing.T) {
	p := testPipeline(t)
	rows, err := p.Fig1SymbolConstruction(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows[1]) != 2 || len(rows[2]) != 4 || len(rows[3]) != 8 {
		t.Fatalf("level sizes = %d/%d/%d", len(rows[1]), len(rows[2]), len(rows[3]))
	}
	// Level-1 '0' must cover exactly the union of level-2 '00' and '01'.
	l1, l2 := rows[1], rows[2]
	if l1[0].Lo != l2[0].Lo || l1[0].Hi != l2[1].Hi {
		t.Fatalf("'0' range [%v,%v] != union of '00','01' [%v,%v]",
			l1[0].Lo, l1[0].Hi, l2[0].Lo, l2[1].Hi)
	}
	// Refinement links are present below the deepest level.
	if len(l1[0].ParentOf) != 2 {
		t.Fatalf("level-1 symbols should list refinements: %+v", l1[0])
	}
	if l1[0].ParentOf[0].String() != "00" || l1[0].ParentOf[1].String() != "01" {
		t.Fatalf("refinements = %v", l1[0].ParentOf)
	}
}

func TestFig2HistogramSkew(t *testing.T) {
	p := testPipeline(t)
	h, err := p.Fig2Histogram(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		t.Fatal("histogram is empty")
	}
	// Log-normal-like: the mode sits in the lower half of the range.
	if h.Mode() > 1200 {
		t.Fatalf("mode = %v, expected low-power mode", h.Mode())
	}
	var buf bytes.Buffer
	if _, err := h.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "#") {
		t.Fatal("rendered histogram should contain bars")
	}
}

func TestFig3Groupings(t *testing.T) {
	saxRes, symRes, err := Fig3Compare()
	if err != nil {
		t.Fatal(err)
	}
	// SAX (z-normalised) groups by shape: A pairs with C, B with D.
	if saxRes.NearestTo["A"] != "C" || saxRes.NearestTo["C"] != "A" {
		t.Fatalf("SAX grouping = %v; normalisation should pair A with C", saxRes.NearestTo)
	}
	if saxRes.Words["A"] != saxRes.Words["C"] {
		t.Fatalf("z-normalised words of A and C should be identical: %v", saxRes.Words)
	}
	// Absolute encoding groups by level: A pairs with B, C with D.
	if symRes.NearestTo["A"] != "B" || symRes.NearestTo["B"] != "A" {
		t.Fatalf("symbolic grouping = %v; absolute encoding should pair A with B", symRes.NearestTo)
	}
	if symRes.NearestTo["C"] != "D" {
		t.Fatalf("C should pair with D: %v", symRes.NearestTo)
	}
}

func TestFig4Convergence(t *testing.T) {
	p := testPipeline(t)
	points, err := p.Fig4AccumulativeStats(0, 3, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 10 {
		t.Fatalf("only %d snapshots", len(points))
	}
	// The paper: "statistics start to converge after day one". For a
	// cumulative mean, consecutive-snapshot steps shrink like 1/n, so the
	// average relative step over the last third must be below the average
	// over the first third. (Endpoint-to-endpoint comparisons are too
	// sensitive to which day happens to be high-consumption.)
	if points[0].Seconds >= points[len(points)-1].Seconds {
		t.Fatal("snapshots must advance")
	}
	step := func(from, to int) float64 {
		var sum float64
		n := 0
		for i := from + 1; i <= to; i++ {
			sum += math.Abs(points[i].Mean-points[i-1].Mean) / points[i].Mean
			n++
		}
		return sum / float64(n)
	}
	third := len(points) / 3
	early := step(0, third)
	late := step(len(points)-third-1, len(points)-1)
	if late > early {
		t.Fatalf("mean step size grew late: early %v, late %v", early, late)
	}
	for _, pt := range points {
		if pt.Mean <= 0 || pt.Median <= 0 || pt.DistinctMedian <= 0 {
			t.Fatalf("non-positive statistic: %+v", pt)
		}
	}
}

func TestCompressionTable(t *testing.T) {
	rows, err := CompressionTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Paper's headline cell: 15m window, 16 symbols → 384 bits.
	found := false
	for _, r := range rows {
		if r.Window == Window15m && r.K == 16 {
			found = true
			if r.Stats.SymbolBits != 384 {
				t.Fatalf("SymbolBits = %d, want 384", r.Stats.SymbolBits)
			}
			if r.Stats.Ratio < 1000 {
				t.Fatalf("ratio = %v, want three orders of magnitude", r.Stats.Ratio)
			}
		}
	}
	if !found {
		t.Fatal("missing 15m/16 row")
	}
	var buf bytes.Buffer
	if err := WriteCompressionTable(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ratio") {
		t.Fatal("table header missing")
	}
}
