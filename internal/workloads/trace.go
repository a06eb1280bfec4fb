package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"

	"cata/internal/program"
	"cata/internal/sim"
	"cata/internal/spec"
	"cata/internal/tdg"
)

// Externally captured task graphs: the `trace` workload replays a JSON
// trace (the format WriteJSON emits — see internal/program), and the
// `dot` workload imports a Graphviz digraph (the format WriteDOT emits,
// or any plain hand-written digraph). Both run under every policy exactly
// like a built-in generator.
//
// A JSON trace preserves the full program — types, costs, data tokens and
// barriers — so replaying an exported trace reproduces the original run's
// EDP exactly. A DOT graph preserves structure and per-task costs but has
// no barriers (they are not edges), and tasks missing cost attributes
// fall back to the `dur`/`memfrac` parameters.
//
// Both entries hash the file's content into the batch cache key, so
// editing a trace file never resurrects stale cached results under the
// same path.

func init() {
	Register(Entry{
		Name:        "trace",
		Description: "replay a JSON task-graph trace (see catasim -export); exact down to the barrier",
		Params:      []spec.ParamDoc{fileParam("path to the JSON trace")},
		FileBacked:  true,
		Build: func(p spec.Params, _ uint64, _ float64) (*program.Program, error) {
			f, err := os.Open(p.Str("file", ""))
			if err != nil {
				return nil, fmt.Errorf("workloads: trace: %w", err)
			}
			defer f.Close()
			return program.ReadJSON(f)
		},
		CacheToken: fileCacheToken,
	})
	Register(Entry{
		Name:        "dot",
		Description: "import a Graphviz digraph as a task graph (see catasim -dot); structure and costs, no barriers",
		Params: []spec.ParamDoc{
			fileParam("path to the DOT file"),
			{Key: "dur", Kind: spec.Float, Default: "1000", Help: "duration in µs at 1 GHz for nodes without cost attributes",
				Min: 1, Max: 1e9},
			{Key: "memfrac", Kind: spec.Float, Default: "0.3", Help: "memory-stall fraction for nodes without cost attributes",
				Min: 0, Max: 1},
		},
		FileBacked: true,
		Build:      buildDOT,
		CacheToken: fileCacheToken,
	})
}

// fileParam declares the required file parameter of a file-backed entry.
func fileParam(help string) spec.ParamDoc {
	return spec.ParamDoc{Key: "file", Kind: spec.String, Default: "(required)", Help: help, Required: true}
}

// fileCacheToken hashes the file parameter's content.
func fileCacheToken(p spec.Params) (string, error) {
	path := p.Str("file", "")
	b, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("workloads: hashing %s: %w", path, err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// dotTopoOrder returns node indices in a dependency-respecting order:
// every predecessor before its successors, ties broken by first-mention
// order so the lowering is deterministic (and the identity for WriteDOT
// output, which is already topological). It rejects cyclic digraphs,
// which cannot be task graphs.
func dotTopoOrder(nodes []tdg.DOTTask) ([]int, error) {
	succs := make([][]int, len(nodes))
	indeg := make([]int, len(nodes))
	for i, n := range nodes {
		for _, p := range n.Preds {
			succs[p] = append(succs[p], i)
			indeg[i]++
		}
	}
	// Kahn's algorithm with an index-ordered ready heap for stability.
	var ready intHeap
	for i, d := range indeg {
		if d == 0 {
			ready.push(i)
		}
	}
	order := make([]int, 0, len(nodes))
	for ready.len() > 0 {
		i := ready.pop()
		order = append(order, i)
		for _, s := range succs[i] {
			indeg[s]--
			if indeg[s] == 0 {
				ready.push(s)
			}
		}
	}
	if len(order) != len(nodes) {
		return nil, fmt.Errorf("workloads: dot graph has a dependence cycle")
	}
	return order, nil
}

// intHeap is a minimal min-heap of ints.
type intHeap []int

func (h intHeap) len() int { return len(h) }

func (h *intHeap) push(v int) {
	*h = append(*h, v)
	for i := len(*h) - 1; i > 0; {
		parent := (i - 1) / 2
		if (*h)[parent] <= (*h)[i] {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *intHeap) pop() int {
	v := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && (*h)[l] < (*h)[small] {
			small = l
		}
		if r < last && (*h)[r] < (*h)[small] {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return v
}

// buildDOT lowers an imported DOT graph to a program: each node becomes a
// task producing one token, and each edge makes the successor read its
// predecessor's token, reproducing the dependence structure exactly.
// Tasks are emitted in topological order — DOT files may mention a
// successor before its predecessor, but program order must not, or the
// OmpSs read-before-write resolution would drop the edge. Nodes without
// cost attributes get the default duration split by memfrac, like every
// generator.
func buildDOT(p spec.Params, _ uint64, _ float64) (*program.Program, error) {
	dur, memfrac := synthDur(p.Float("dur", 1000)), p.Float("memfrac", 0.3)
	f, err := os.Open(p.Str("file", ""))
	if err != nil {
		return nil, fmt.Errorf("workloads: dot: %w", err)
	}
	defer f.Close()
	nodes, err := tdg.ReadDOT(f)
	if err != nil {
		return nil, err
	}
	order, err := dotTopoOrder(nodes)
	if err != nil {
		return nil, err
	}

	prog := &program.Program{Name: "dot"}
	// One shared type per (name, criticality) pair, so instances of the
	// same exported task type share identity like the original program.
	type typeKey struct {
		name string
		crit int
	}
	types := map[typeKey]*tdg.TaskType{}
	outTok := make([]tdg.Token, len(nodes))
	for i := range nodes {
		outTok[i] = tdg.Token(i + 1) // token 0 stays reserved
	}
	defMem := sim.Time(float64(dur) * memfrac)
	defCycles := int64((dur - defMem) / sim.Gigahertz.Period())
	for _, i := range order {
		n := nodes[i]
		name := n.Type
		if name == "" {
			name = "dot"
		}
		k := typeKey{name, n.Criticality}
		tt := types[k]
		if tt == nil {
			tt = &tdg.TaskType{Name: name, Criticality: n.Criticality}
			types[k] = tt
		}
		cycles, mem, io := n.CPUCycles, n.MemTime, n.IOTime
		if cycles == 0 && mem == 0 && io == 0 {
			cycles, mem = defCycles, defMem
		}
		ins := make([]tdg.Token, len(n.Preds))
		for j, pr := range n.Preds {
			ins[j] = outTok[pr]
		}
		prog.AddTask(program.TaskSpec{
			Type:      tt,
			CPUCycles: cycles,
			MemTime:   mem,
			IOTime:    io,
			Ins:       ins,
			Outs:      []tdg.Token{outTok[i]},
		})
	}
	return prog, nil
}
