package workloads

import (
	"fmt"

	"cata/internal/program"
	"cata/internal/sim"
	"cata/internal/spec"
	"cata/internal/tdg"
)

// Synthetic parameterized DAG shapes. Hand-picked benchmark graphs
// under-sample the criticality space (AMTHA and the Marinho & Petters DAG
// timing work both evaluate on parameterized random task graphs for this
// reason); these five generators open it up: every shape is tunable in
// width, depth and cost skew, and deterministic per seed — the same
// (spec, seed) pair always produces a byte-identical program.
//
// Shapes and what they stress:
//
//	layered    layered-random DAG with a heavy critical spine; general
//	           criticality estimation under irregular fan-in
//	forkjoin   barrier-free fork-join phases joined by reduction tasks;
//	           reconfiguration churn at phase boundaries
//	pipeline   serial-parallel-serial software pipeline; acceleration of
//	           serial critical stages (the dedup/ferret pattern)
//	wavefront  2D dependency front; a moving diagonal of ready tasks with
//	           the main diagonal critical (the fluidanimate pattern)
//	chain      one long critical chain shedding non-blocking side work;
//	           the textbook case for criticality-aware acceleration
//
// The common parameters are `dur` (mean task duration in microseconds at
// the slow 1 GHz level), `skew` (log-normal sigma of task durations: 0 is
// uniform, 1 is heavy-tailed) and `memfrac` (fraction of task time
// stalled on memory, which does not scale with frequency).

// synthDur converts a duration parameter in microseconds to sim.Time.
func synthDur(us float64) sim.Time {
	return sim.Time(us * float64(sim.Microsecond))
}

// synthTask appends a task with a log-normal duration draw.
func (b *builder) synthTask(tt *tdg.TaskType, mean sim.Time, skew float64, memfrac float64, ins, outs []tdg.Token) {
	d := mean
	if skew > 0 {
		d = b.lognormDur(mean, skew)
	}
	b.task(tt, d, memfrac, ins, outs, 0)
}

func init() {
	durParams := []spec.ParamDoc{
		{Key: "dur", Kind: spec.Float, Default: "1000", Help: "mean task duration in µs at 1 GHz", Min: 1, Max: 1e9},
		{Key: "skew", Kind: spec.Float, Default: "0.5", Help: "log-normal sigma of task durations", Min: 0, Max: 4},
		{Key: "memfrac", Kind: spec.Float, Default: "0.3", Help: "fraction of task time stalled on memory", Min: 0, Max: 1},
	}
	Register(Entry{
		Name:        "layered",
		Description: "layered-random DAG: depth layers of width tasks with random fan-in and a heavy critical spine",
		Params: append([]spec.ParamDoc{
			{Key: "width", Kind: spec.Int, Default: "16", Help: "tasks per layer", Min: 1},
			{Key: "depth", Kind: spec.Int, Default: "32", Help: "number of layers", Min: 1},
			{Key: "fanin", Kind: spec.Int, Default: "2", Help: "max predecessors drawn from the previous layer", Min: 1},
		}, durParams...),
		Build: buildLayered,
	})
	Register(Entry{
		Name:        "forkjoin",
		Description: "fork-join phases: width parallel tasks reduced by a critical join, chained phase to phase",
		Params: append([]spec.ParamDoc{
			{Key: "width", Kind: spec.Int, Default: "64", Help: "parallel tasks per phase", Min: 1},
			{Key: "phases", Kind: spec.Int, Default: "8", Help: "number of fork-join phases", Min: 1},
		}, durParams...),
		Build: buildForkJoin,
	})
	Register(Entry{
		Name:        "pipeline",
		Description: "software pipeline: serial critical intake, parallel middle stages, serial critical writer",
		Params: append([]spec.ParamDoc{
			{Key: "items", Kind: spec.Int, Default: "128", Help: "items flowing through the pipeline", Min: 1},
			{Key: "stages", Kind: spec.Int, Default: "4", Help: "pipeline stages (>= 2; first and last are serial)", Min: 2},
		}, durParams...),
		Build: buildPipeline,
	})
	Register(Entry{
		Name:        "wavefront",
		Description: "2D wavefront: task (i,j) depends on (i-1,j) and (i,j-1); the main diagonal is critical",
		Params: append([]spec.ParamDoc{
			{Key: "rows", Kind: spec.Int, Default: "24", Help: "grid rows", Min: 1},
			{Key: "cols", Kind: spec.Int, Default: "24", Help: "grid columns", Min: 1},
		}, durParams...),
		Build: buildWavefront,
	})
	Register(Entry{
		Name:        "chain",
		Description: "long critical chain shedding non-blocking parallel side tasks at every link",
		Params: append([]spec.ParamDoc{
			{Key: "length", Kind: spec.Int, Default: "48", Help: "chain links (critical tasks)", Min: 1},
			{Key: "side", Kind: spec.Int, Default: "6", Help: "non-critical side tasks per link", Min: 0},
			{Key: "sidedur", Kind: spec.Float, Default: "2*dur", Help: "mean side-task duration in µs at 1 GHz", Min: 1, Max: 1e9},
		}, durParams...),
		Build: buildChain,
	})
}

// synthParams reads the duration parameters every shape shares.
func synthParams(p spec.Params) (dur sim.Time, skew, memfrac float64) {
	return synthDur(p.Float("dur", 1000)), p.Float("skew", 0.5), p.Float("memfrac", 0.3)
}

func buildLayered(p spec.Params, seed uint64, scale float64) (*program.Program, error) {
	width, depth, fanin := p.Int("width", 16), p.Int("depth", 32), p.Int("fanin", 2)
	dur, skew, memfrac := synthParams(p)
	b := newBuilder("layered", seed)
	plain := &tdg.TaskType{Name: "layer", Criticality: 0}
	spine := &tdg.TaskType{Name: "spine", Criticality: 1}
	w := scaled(width, scale)
	var prev []tdg.Token // previous layer's outputs
	spineAt := 0         // index of the spine task in prev
	for l := 0; l < depth; l++ {
		outs := b.tokens(w)
		next := b.rng.Intn(w)
		for i := 0; i < w; i++ {
			var ins []tdg.Token
			if l > 0 {
				k := 1 + b.rng.Intn(fanin)
				if k > len(prev) {
					k = len(prev)
				}
				for _, j := range b.rng.Perm(len(prev))[:k] {
					ins = append(ins, prev[j])
				}
			}
			tt, mean := plain, dur
			if i == next {
				// The spine: one heavy task per layer, chained to the
				// previous layer's spine so a long critical path exists
				// for the estimators to find.
				tt, mean = spine, 2*dur
				if l > 0 {
					ins = append(ins, prev[spineAt])
				}
			}
			b.synthTask(tt, mean, skew, memfrac, ins, []tdg.Token{outs[i]})
		}
		prev, spineAt = outs, next
	}
	return b.p, nil
}

func buildForkJoin(p spec.Params, seed uint64, scale float64) (*program.Program, error) {
	width, phases := p.Int("width", 64), p.Int("phases", 8)
	dur, skew, memfrac := synthParams(p)
	b := newBuilder("forkjoin", seed)
	work := &tdg.TaskType{Name: "work", Criticality: 0}
	join := &tdg.TaskType{Name: "join", Criticality: 1}
	w := scaled(width, scale)
	var joined []tdg.Token // previous phase's join output
	for ph := 0; ph < phases; ph++ {
		outs := b.tokens(w)
		for i := 0; i < w; i++ {
			b.synthTask(work, dur, skew, memfrac, joined, []tdg.Token{outs[i]})
		}
		jout := b.token()
		b.synthTask(join, dur/2, skew/2, memfrac, outs, []tdg.Token{jout})
		joined = []tdg.Token{jout}
	}
	return b.p, nil
}

func buildPipeline(p spec.Params, seed uint64, scale float64) (*program.Program, error) {
	items, stages := p.Int("items", 128), p.Int("stages", 4)
	dur, skew, memfrac := synthParams(p)
	b := newBuilder("pipeline", seed)
	intake := &tdg.TaskType{Name: "intake", Criticality: 1}
	writer := &tdg.TaskType{Name: "writer", Criticality: 1}
	middle := make([]*tdg.TaskType, 0, stages-2)
	for s := 1; s < stages-1; s++ {
		middle = append(middle, &tdg.TaskType{Name: fmt.Sprintf("stage%d", s), Criticality: 0})
	}
	// Per-stage mean costs: middle stages draw a deterministic spread so
	// one of them bottlenecks, like real pipelines.
	middleMean := make([]sim.Time, len(middle))
	for i := range middleMean {
		middleMean[i] = sim.Time(b.rng.Uniform(0.6, 1.8) * float64(dur))
	}
	n := scaled(items, scale)
	intakeChain := b.token()
	writeChain := b.token()
	for it := 0; it < n; it++ {
		// Serial intake, modeled with an inout chain token.
		cur := b.token()
		b.synthTask(intake, dur/2, skew/2, memfrac,
			[]tdg.Token{intakeChain}, []tdg.Token{intakeChain, cur})
		// Parallel middle stages, item-local.
		for s := range middle {
			next := b.token()
			b.synthTask(middle[s], middleMean[s], skew, memfrac,
				[]tdg.Token{cur}, []tdg.Token{next})
			cur = next
		}
		// Serial in-order writer.
		b.synthTask(writer, dur/2, skew/2, memfrac,
			[]tdg.Token{writeChain, cur}, []tdg.Token{writeChain})
	}
	return b.p, nil
}

func buildWavefront(p spec.Params, seed uint64, scale float64) (*program.Program, error) {
	rows, cols := p.Int("rows", 24), p.Int("cols", 24)
	dur, skew, memfrac := synthParams(p)
	b := newBuilder("wavefront", seed)
	cell := &tdg.TaskType{Name: "cell", Criticality: 0}
	diag := &tdg.TaskType{Name: "diag", Criticality: 1}
	nr := scaled(rows, scale)
	prevRow := make([]tdg.Token, cols)
	for i := 0; i < nr; i++ {
		row := b.tokens(cols)
		for j := 0; j < cols; j++ {
			var ins []tdg.Token
			if i > 0 {
				ins = append(ins, prevRow[j])
			}
			if j > 0 {
				ins = append(ins, row[j-1])
			}
			tt := cell
			if i == j {
				tt = diag
			}
			b.synthTask(tt, dur, skew, memfrac, ins, []tdg.Token{row[j]})
		}
		prevRow = row
	}
	return b.p, nil
}

func buildChain(p spec.Params, seed uint64, scale float64) (*program.Program, error) {
	length, side := p.Int("length", 48), p.Int("side", 6)
	dur, skew, memfrac := synthParams(p)
	sidedur := synthDur(p.Float("sidedur", 0))
	if sidedur == 0 {
		sidedur = 2 * dur
	}
	b := newBuilder("chain", seed)
	link := &tdg.TaskType{Name: "link", Criticality: 1}
	fill := &tdg.TaskType{Name: "fill", Criticality: 0}
	n := scaled(length, scale)
	chain := b.token()
	for l := 0; l < n; l++ {
		out := b.token()
		b.synthTask(link, dur, skew/2, memfrac,
			[]tdg.Token{chain}, []tdg.Token{chain, out})
		// Side work forks off the link but nothing joins it back: it
		// fills cores without ever blocking the critical chain.
		for s := 0; s < side; s++ {
			b.synthTask(fill, sidedur, skew, memfrac, []tdg.Token{out}, nil)
		}
	}
	return b.p, nil
}
