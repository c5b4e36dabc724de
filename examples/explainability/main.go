// Explainability: why did the model attribute this to that group?
//
// Two views, mirroring the paper's §VII-D:
//
//  1. SHAP values over the XGB URL classifier reveal which engineered
//     features characterise one APT's URLs (Fig. 9).
//  2. GNNExplainer finds the subgraph — the specific IOCs and their
//     relations — that drove a GNN event attribution (Fig. 10).
//
// Run with:
//
//	go run ./examples/explainability
package main

import (
	"fmt"
	"log"

	"trail/internal/eval"
	"trail/internal/osint"
)

func main() {
	opts := eval.DefaultOptions()
	opts.World = osint.DefaultConfig()
	opts.World.Months = 14
	opts.StudyMonths = 2
	opts.Fast = true // drop for full fidelity

	ctx, err := eval.NewContext(opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== Feature-level explanation (SHAP on the XGB URL classifier) ===")
	const apt = "APT28"
	fig9, err := eval.RunFigure9(ctx, apt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(fig9.Render())
	fmt.Println("Analysts read this as a signature: the direction column says whether")
	fmt.Println("high values of the feature push the classifier toward the group.")

	fmt.Println("\n=== Graph-level explanation (GNNExplainer on a 3-layer GNN) ===")
	fig10, err := eval.RunFigure10(ctx, apt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(fig10.Render())
	fmt.Println("Even when a prediction is wrong, these IOCs tell an analyst where")
	fmt.Println("to look next — the paper's argument for explainable attribution.")
}
