package tdg

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadDOT holds the DOT reader to its contract on arbitrary input:
// it never panics, and every graph it accepts has at least one node,
// predecessor indices that name nodes of the graph, and no negative
// cost. The dot workload builds programs from these fields unchecked.
func FuzzReadDOT(f *testing.F) {
	var exported bytes.Buffer
	g := New(nil)
	var tasks []*Task
	for i, dep := range [][2][]Token{{nil, {1}}, {{1}, {2}}, {{1}, {3}}, {{2, 3}, nil}} {
		tk := &Task{ID: i, Type: testType, CPUCycles: int64(100 * (i + 1)), Ins: dep[0], Outs: dep[1]}
		g.Submit(tk)
		tasks = append(tasks, tk)
	}
	if err := WriteDOT(&exported, tasks); err != nil {
		f.Fatal(err)
	}
	for _, s := range []string{
		exported.String(),
		"digraph g {\n  node [shape=circle];\n  src -> left -> sink;\n  src -> \"right node\";\n  \"right node\" -> sink\n}\n",
		"digraph g {\n node1 -> node2;\n edge_a -> node1;\n graph2 [cycles=5];\n}\n",
		"strict digraph { a [type=\"x\" criticality=2 cycles=1 mem_ps=2 io_ps=3]; a -> a }",
		"digraph g {\n a [cycles=-1];\n}\n",
		"digraph g {\n a -> ;\n}\n",
		"digraph g {\n a [label=\"x\";\n}\n",
		"digraph g {\n subgraph c { a; }\n}\n",
		"a -> b;\n",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		nodes, err := ReadDOT(strings.NewReader(s))
		if err != nil {
			return
		}
		if len(nodes) == 0 {
			t.Fatal("accepted a graph with no nodes")
		}
		for i, n := range nodes {
			if n.CPUCycles < 0 || n.MemTime < 0 || n.IOTime < 0 || n.Criticality < 0 {
				t.Fatalf("node %d (%q) has a negative cost: %+v", i, n.Name, n)
			}
			for _, p := range n.Preds {
				if p < 0 || p >= len(nodes) {
					t.Fatalf("node %d (%q) has predecessor %d of %d nodes", i, n.Name, p, len(nodes))
				}
			}
		}
	})
}
