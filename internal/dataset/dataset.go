// Package dataset provides deterministic synthetic analogues of the five
// public datasets the paper evaluates on (Appendix C). The originals are
// not available offline, so each analogue is generated to preserve the
// structural property the corresponding experiments depend on — degree
// skew, clusterability, directedness, density — at roughly 1/10 scale so
// the full experiment suite (including the deliberately bad Random
// reordering) runs on one machine. docs/ARCHITECTURE.md places the package
// in the layer map.
package dataset

import (
	"fmt"

	"kdash/internal/gen"
	"kdash/internal/graph"
)

// Dataset couples a graph with its name and optional node labels.
type Dataset struct {
	Name   string
	Graph  *graph.Graph
	Labels []string // nil when the dataset is unlabelled
}

// NodeByLabel returns the node id carrying the given label.
func (d *Dataset) NodeByLabel(label string) (int, error) {
	for i, l := range d.Labels {
		if l == label {
			return i, nil
		}
	}
	return 0, fmt.Errorf("dataset %s: no node labelled %q", d.Name, label)
}

// Label returns the label of node u, or "node<u>" when unlabelled.
func (d *Dataset) Label(u int) string {
	if u >= 0 && u < len(d.Labels) {
		return d.Labels[u]
	}
	return fmt.Sprintf("node%d", u)
}

// All returns the five datasets in the paper's presentation order.
func All() []*Dataset {
	return []*Dataset{Dictionary(), Internet(), Citation(), Social(), Email()}
}

// Names lists the dataset names in order.
//
//kdash:testonly
func Names() []string {
	return []string{"Dictionary", "Internet", "Citation", "Social", "Email"}
}

// ByName returns the named dataset.
//
//kdash:testonly
func ByName(name string) (*Dataset, error) {
	switch name {
	case "Dictionary":
		return Dictionary(), nil
	case "Internet":
		return Internet(), nil
	case "Citation":
		return Citation(), nil
	case "Social":
		return Social(), nil
	case "Email":
		return Email(), nil
	default:
		return nil, fmt.Errorf("dataset: unknown name %q (want one of %v)", name, Names())
	}
}

// Internet simulates the AS-level Internet topology (paper: 22,963 nodes /
// 48,436 edges): an undirected graph with a heavy-tailed degree
// distribution, generated by preferential attachment.
func Internet() *Dataset {
	return &Dataset{Name: "Internet", Graph: gen.BarabasiAlbert(1500, 2, 1001)}
}

// Citation simulates the cond-mat co-authorship network (paper: 31,163 /
// 120,029): an undirected weighted graph with strong community structure.
func Citation() *Dataset {
	return &Dataset{Name: "Citation", Graph: gen.PlantedPartition(1600, 20, 0.1, 0.0005, 1002)}
}

// Social simulates the Epinions trust network (paper: 131,828 / 841,372):
// a directed graph with a dense scale-free core.
func Social() *Dataset {
	return &Dataset{Name: "Social", Graph: gen.DirectedScaleFree(2000, 6, 0.15, 0.3, 1003)}
}

// Email simulates the EU-institution email network (paper: 265,214 /
// 420,045): a sparse directed graph dominated by a few hubs.
func Email() *Dataset {
	return &Dataset{Name: "Email", Graph: gen.DirectedScaleFree(2200, 2, 0.3, 0.25, 1004)}
}
