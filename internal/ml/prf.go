package ml

import (
	"fmt"
	"sort"
	"strings"
)

// ClassReport holds per-class precision, recall and F1.
type ClassReport struct {
	Class     int
	Support   int
	Precision float64
	Recall    float64
	F1        float64
}

// ClassificationReport computes per-class precision/recall/F1 for classes
// that appear in truth or pred, ordered by class index. The companion of
// the confusion matrix for the Fig. 7 analysis.
func ClassificationReport(truth, pred []int, classes int) []ClassReport {
	tp := make([]int, classes)
	fp := make([]int, classes)
	fn := make([]int, classes)
	support := make([]int, classes)
	for i, tr := range truth {
		p := pred[i]
		if tr >= 0 && tr < classes {
			support[tr]++
			if p == tr {
				tp[tr]++
			} else {
				fn[tr]++
			}
		}
		if p >= 0 && p < classes && p != tr {
			fp[p]++
		}
	}
	var out []ClassReport
	for c := 0; c < classes; c++ {
		if support[c] == 0 && fp[c] == 0 {
			continue
		}
		r := ClassReport{Class: c, Support: support[c]}
		if tp[c]+fp[c] > 0 {
			r.Precision = float64(tp[c]) / float64(tp[c]+fp[c])
		}
		if tp[c]+fn[c] > 0 {
			r.Recall = float64(tp[c]) / float64(tp[c]+fn[c])
		}
		if r.Precision+r.Recall > 0 {
			r.F1 = 2 * r.Precision * r.Recall / (r.Precision + r.Recall)
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// RenderReport formats a classification report with class names.
func RenderReport(reports []ClassReport, names []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %9s %9s %9s %9s\n", "class", "precision", "recall", "f1", "support")
	for _, r := range reports {
		name := fmt.Sprintf("class%d", r.Class)
		if r.Class < len(names) {
			name = names[r.Class]
		}
		fmt.Fprintf(&b, "%-12s %9.3f %9.3f %9.3f %9d\n",
			trunc(name, 11), r.Precision, r.Recall, r.F1, r.Support)
	}
	return b.String()
}
