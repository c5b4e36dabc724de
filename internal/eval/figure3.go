package eval

import (
	"fmt"
	"strings"

	"trail/internal/graph"
)

// Figure3Result reproduces the paper's Fig. 3: the enriched ego network
// around one event, with the IOC census the paper quotes ("this subgraph
// has 239 related IOCs: 94 IPs, 95 domains, and 50 URLs").
type Figure3Result struct {
	Event      string
	APT        string
	ByKind     map[graph.NodeKind]int
	TotalIOCs  int
	Edges      int
	SampleIOCs []string // a few defanged examples, as the paper shows
}

// Render prints the ego-net census.
func (r *Figure3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: ego-net around a %s event (%s)\n", r.APT, r.Event)
	fmt.Fprintf(&b, "  related IOCs: %d (%d IPs, %d domains, %d URLs), %d ASNs, %d edges\n",
		r.TotalIOCs,
		r.ByKind[graph.KindIP], r.ByKind[graph.KindDomain], r.ByKind[graph.KindURL],
		r.ByKind[graph.KindASN], r.Edges)
	for _, s := range r.SampleIOCs {
		fmt.Fprintf(&b, "  e.g. %s\n", s)
	}
	return b.String()
}

// RunFigure3 builds the 2-hop ego network of the largest event of the
// given APT (APT28 by default, as in the paper's figure).
func RunFigure3(ctx *Context, aptName string) (*Figure3Result, error) {
	if aptName == "" {
		aptName = "APT28"
	}
	class := -1
	for i, n := range ctx.Names {
		if n == aptName {
			class = i
		}
	}
	if class < 0 {
		return nil, fmt.Errorf("eval: unknown APT %q", aptName)
	}
	// Largest event of the class by degree: the richest ego-net.
	var target graph.NodeID = -1
	bestDeg := -1
	for _, ev := range ctx.TKG.EventNodes() {
		if ctx.TKG.G.Node(ev).Label != class {
			continue
		}
		if d := ctx.TKG.G.Degree(ev); d > bestDeg {
			target, bestDeg = ev, d
		}
	}
	if target < 0 {
		return nil, fmt.Errorf("eval: no %s events in the TKG", aptName)
	}
	net := ctx.TKG.G.Ego(ctx.TKG.G.CSR(), target, 2)

	res := &Figure3Result{
		Event:  ctx.TKG.G.Node(target).Key,
		APT:    aptName,
		ByKind: make(map[graph.NodeKind]int),
		Edges:  len(net.Edges),
	}
	for _, id := range net.Nodes {
		n := ctx.TKG.G.Node(id)
		if id == target {
			continue
		}
		res.ByKind[n.Kind]++
		switch n.Kind {
		case graph.KindIP, graph.KindURL, graph.KindDomain:
			res.TotalIOCs++
			if len(res.SampleIOCs) < 3 {
				res.SampleIOCs = append(res.SampleIOCs, defangForDisplay(n.Key))
			}
		}
	}
	return res, nil
}

// defangForDisplay renders IOCs report-safe, exactly as the paper prints
// them (hxxp://, [.]).
func defangForDisplay(s string) string {
	r := strings.NewReplacer("http://", "hxxp://", "https://", "hxxps://")
	s = r.Replace(s)
	// Bracket only the final dot to stay readable.
	if i := strings.LastIndexByte(s, '.'); i > 0 {
		s = s[:i] + "[.]" + s[i+1:]
	}
	return s
}
