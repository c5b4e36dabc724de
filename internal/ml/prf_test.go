package ml

import (
	"math"
	"strings"
	"testing"
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
