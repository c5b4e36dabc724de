package ml

import (
	"math"
	"strings"
	"testing"

	"trail/internal/mat"
)

func TestClassificationReport(t *testing.T) {
	truth := []int{0, 0, 0, 1, 1, 2}
	pred := []int{0, 0, 1, 1, 0, 2}
	reports := ClassificationReport(truth, pred, 3)
	if len(reports) != 3 {
		t.Fatalf("reports %d", len(reports))
	}
	// Class 0: tp=2, fp=1, fn=1 -> precision 2/3, recall 2/3.
	r0 := reports[0]
	if math.Abs(r0.Precision-2.0/3) > 1e-12 || math.Abs(r0.Recall-2.0/3) > 1e-12 {
		t.Fatalf("class 0: %+v", r0)
	}
	if r0.Support != 3 {
		t.Fatalf("class 0 support %d", r0.Support)
	}
	// Class 2: perfect.
	r2 := reports[2]
	if r2.F1 != 1 {
		t.Fatalf("class 2 F1 %v", r2.F1)
	}
	if s := RenderReport(reports, []string{"a", "b", "c"}); !strings.Contains(s, "precision") {
		t.Fatal("render incomplete")
	}
}

func TestClassificationReportSkipsEmptyClasses(t *testing.T) {
	reports := ClassificationReport([]int{5}, []int{5}, 22)
	if len(reports) != 1 || reports[0].Class != 5 {
		t.Fatalf("reports %+v", reports)
	}
}

func TestMacroF1(t *testing.T) {
	truth := []int{0, 1}
	pred := []int{0, 0}
	// Class 0: p=0.5, r=1, f1=2/3; class 1: f1=0 -> macro 1/3.
	if got := MacroF1(truth, pred, 2); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("macro F1 %v", got)
	}
}

func TestTopKAccuracy(t *testing.T) {
	probs := mat.FromRows([][]float64{
		{0.5, 0.3, 0.2}, // truth 1: top-1 miss, top-2 hit
		{0.1, 0.2, 0.7}, // truth 2: top-1 hit
		{0.4, 0.4, 0.2}, // truth 2: top-2 miss
	})
	truth := []int{1, 2, 2}
	if got := TopKAccuracy(probs, truth, 1); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("top-1 %v", got)
	}
	if got := TopKAccuracy(probs, truth, 2); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("top-2 %v", got)
	}
	if got := TopKAccuracy(probs, truth, 99); got != 1 {
		t.Fatalf("top-all %v", got)
	}
	if got := TopKAccuracy(mat.NewOf[float64](0, 3), nil, 1); got != 0 {
		t.Fatal("empty input")
	}
}
