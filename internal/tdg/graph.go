package tdg

import "fmt"

// Graph is the runtime's task dependence graph. Tasks are submitted in
// program order; the graph resolves data dependences into edges exactly as
// OmpSs/OpenMP 4.0 do:
//
//   - an `in` on a datum depends on the datum's last writer (RAW);
//   - an `out` on a datum depends on the last writer (WAW) and on every
//     reader since that write (WAR), then becomes the new last writer.
//
// The graph also maintains each live task's bottom level incrementally and
// reports how many nodes each submission visited, so the runtime can
// charge the dynamic criticality estimator's exploration cost (§II-B:
// "exploring the TDG every time a task is created can become costly").
//
// The bottom-level walk is memoized in two ways. Completed ancestors are
// never re-walked: a Done task can neither become critical again nor
// contribute to MaxLiveBL, and every ancestor of a Done task is itself
// Done, so the estimator caches completed suffixes and the upward
// propagation prunes there instead of re-walking them on every submission
// of a dense region. Within one submission, the walk frontier is
// deduplicated, so a shared predecessor's edges are examined once per
// raise rather than once per path reaching it. SubmitVisited counts the
// nodes the memoized walk actually examines.
//
// Graph is not safe for concurrent use; the simulation is single-threaded.
type Graph struct {
	onReady func(*Task)

	// data holds each datum's last writer and readers since.
	data map[Token]*datum
	// store holds the edge lists of tasks submitted with Submit.
	store Store

	submitted int
	completed int

	// blCount[v] = number of live (not Done) tasks with BottomLevel v,
	// used to answer MaxLiveBL exactly.
	blCount []int32
	maxBL   int64

	// epoch stamps Task.mark for allocation-free per-submission dedup
	// (dependence resolution and the raise frontier); stack is the
	// reusable raise-walk worklist.
	epoch uint64
	stack []*Task
	// ds and preds are SubmitIn's reusable scratch: the submitted task's
	// data, looked up once, and its resolved predecessors.
	ds    []*datum
	preds []*Task
}

// New returns an empty graph. onReady is invoked (synchronously, in
// deterministic submission order) whenever a task becomes Ready.
func New(onReady func(*Task)) *Graph {
	return &Graph{
		onReady: onReady,
		data:    make(map[Token]*datum),
	}
}

// Submitted returns the number of tasks submitted so far.
func (g *Graph) Submitted() int { return g.submitted }

// Completed returns the number of tasks completed so far.
func (g *Graph) Completed() int { return g.completed }

// Live returns the number of submitted-but-not-completed tasks.
func (g *Graph) Live() int { return g.submitted - g.completed }

// AllDone reports whether every submitted task has completed.
func (g *Graph) AllDone() bool { return g.submitted == g.completed }

// Submit adds a task in program order, resolving its dependences. It
// returns the number of TDG nodes visited while updating bottom levels
// (>= 1), the quantity the bottom-level estimator's overhead is charged
// on. The count reflects the memoized walk: completed suffixes and
// already-frontier nodes are not re-visited. If the task has no
// unresolved dependences it becomes Ready immediately and onReady fires
// before Submit returns. The task's edge lists go to the graph's own
// store.
func (g *Graph) Submit(t *Task) (visited int) { return g.SubmitIn(&g.store, t) }

// SubmitIn is Submit with the task's edge lists, and the records of
// data it is first to access, kept in s. Every task accessing a datum
// should be submitted into one store (see Store).
func (g *Graph) SubmitIn(s *Store, t *Task) (visited int) {
	if t.state != Waiting || t.nwait != 0 || len(t.preds) > 0 {
		panic(fmt.Sprintf("tdg: resubmission of %v", t))
	}
	g.submitted++

	// Look each datum up once, then resolve dependences. A predecessor
	// may appear through several data; dedupe (epoch-stamped marks, no
	// per-submit allocation) so nwait counts distinct tasks.
	ds := g.ds[:0]
	for _, tok := range t.Ins {
		ds = append(ds, g.datum(s, tok))
	}
	for _, tok := range t.Outs {
		ds = append(ds, g.datum(s, tok))
	}
	ins, outs := ds[:len(t.Ins)], ds[len(t.Ins):]
	g.epoch++
	preds := g.preds[:0]
	for _, d := range ins {
		preds = g.addEdge(s, preds, t, d.writer)
	}
	for _, d := range outs {
		preds = g.addEdge(s, preds, t, d.writer)
		for l := d.readers; l != nil; l = l.next {
			preds = g.addEdge(s, preds, t, l.task)
		}
	}
	t.preds = s.keepPreds(preds)
	clear(preds)
	g.preds = preds[:0]
	// Register accesses: readers accumulate until the next writer.
	for _, d := range ins {
		d.addReader(s, t)
	}
	for _, d := range outs {
		d.write(s, t)
	}
	clear(ds)
	g.ds = ds[:0]

	// The new task is a leaf: BottomLevel 0. Its predecessors' bottom
	// levels may grow; propagate upward.
	t.BottomLevel = 0
	g.incBL(0)
	visited = 1 + g.raiseBL(t)

	if t.nwait == 0 {
		g.makeReady(t)
	}
	return visited
}

// datum returns tok's record, creating it in s on first sight.
func (g *Graph) datum(s *Store, tok Token) *datum {
	d := g.data[tok]
	if d == nil {
		d = s.datum()
		g.data[tok] = d
	}
	return d
}

// addEdge records a dependence of t on pred, deduplicating via the
// current submission epoch, and returns preds with pred appended.
func (g *Graph) addEdge(s *Store, preds []*Task, t, pred *Task) []*Task {
	if pred == nil || pred == t || pred.state == Done || pred.mark == g.epoch {
		return preds
	}
	pred.mark = g.epoch
	l := s.link(t)
	if pred.lastSucc == nil {
		pred.succs = l
	} else {
		pred.lastSucc.next = l
	}
	pred.lastSucc = l
	t.nwait++
	return append(preds, pred)
}

// raiseBL propagates a bottom-level increase from t to its ancestors,
// returning the number of nodes visited (excluding t itself). Completed
// ancestors are pruned — their bottom levels are dead state the memoized
// estimator never consults again — and a node already on the worklist is
// not pushed twice, so its predecessor edges are examined once with the
// highest level reached rather than once per raise.
func (g *Graph) raiseBL(t *Task) int {
	visited := 0
	g.epoch++
	onStack := g.epoch
	stack := g.stack[:0]
	stack = append(stack, t)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n.mark = 0 // off the worklist; may be re-pushed by a later raise
		need := n.BottomLevel + 1
		for _, p := range n.preds {
			if p.state == Done {
				continue // memoized: dead suffix, nothing live above it
			}
			visited++
			if p.BottomLevel < need {
				g.setBL(p, need)
				if p.mark != onStack {
					p.mark = onStack
					stack = append(stack, p)
				}
			}
		}
	}
	g.stack = stack[:0]
	return visited
}

// setBL moves a live task between blCount buckets. Done tasks never
// reach here: raiseBL prunes them, so their bottom levels stay frozen at
// completion and are never counted.
func (g *Graph) setBL(t *Task, v int64) {
	g.decBL(t.BottomLevel)
	g.incBL(v)
	t.BottomLevel = v
}

func (g *Graph) incBL(v int64) {
	for int64(len(g.blCount)) <= v {
		g.blCount = append(g.blCount, 0)
	}
	g.blCount[v]++
	if v > g.maxBL {
		g.maxBL = v
	}
}

func (g *Graph) decBL(v int64) {
	g.blCount[v]--
	if g.blCount[v] == 0 && v == g.maxBL {
		for g.maxBL > 0 && g.blCount[g.maxBL] == 0 {
			g.maxBL--
		}
	}
}

// Forget drops datum tok from the graph: its last writer and its readers
// since. A later access to tok depends on nothing submitted before. The
// open-system runtime forgets a finished job's data, which nothing else
// names, so the graph stops holding the job's tasks. Forgetting a datum
// a live task still accesses would lose that task's dependences, so it
// panics.
func (g *Graph) Forget(tok Token) {
	d := g.data[tok]
	if d == nil {
		return
	}
	if w := d.writer; w != nil && w.state != Done {
		panic(fmt.Sprintf("tdg: Forget of datum %d written by %v", tok, w))
	}
	for l := d.readers; l != nil; l = l.next {
		if l.task.state != Done {
			panic(fmt.Sprintf("tdg: Forget of datum %d read by %v", tok, l.task))
		}
	}
	delete(g.data, tok)
}

// MaxLiveBL returns the largest bottom level among live tasks (0 when
// empty). This is the reference the bottom-level criticality estimator
// compares against (§II-B: "tasks with the highest BL ... are considered
// critical").
func (g *Graph) MaxLiveBL() int64 { return g.maxBL }

func (g *Graph) makeReady(t *Task) {
	t.state = Ready
	if g.onReady != nil {
		g.onReady(t)
	}
}

// Start marks a Ready task Running (dispatch bookkeeping).
func (g *Graph) Start(t *Task) {
	if t.state != Ready {
		panic(fmt.Sprintf("tdg: Start on %v", t))
	}
	t.state = Running
}

// Complete marks a Running task Done and releases its successors; each
// successor whose last dependence this was becomes Ready (onReady fires in
// edge insertion order). It returns the number of successors released.
func (g *Graph) Complete(t *Task) int {
	if t.state != Running {
		panic(fmt.Sprintf("tdg: Complete on %v", t))
	}
	t.state = Done
	g.completed++
	g.decBL(t.BottomLevel)
	released := 0
	for l := t.succs; l != nil; l = l.next {
		s := l.task
		s.nwait--
		if s.nwait == 0 {
			released++
			g.makeReady(s)
		}
	}
	return released
}

// CheckAcyclic walks the whole graph reachable from the given tasks and
// panics if a dependence cycle exists. Submission order makes cycles
// impossible by construction (edges always point from earlier to later
// submissions); tests call this to enforce the invariant.
func CheckAcyclic(tasks []*Task) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[*Task]int, len(tasks))
	var visit func(t *Task)
	visit = func(t *Task) {
		switch color[t] {
		case grey:
			panic(fmt.Sprintf("tdg: dependence cycle through %v", t))
		case black:
			return
		}
		color[t] = grey
		for l := t.succs; l != nil; l = l.next {
			visit(l.task)
		}
		color[t] = black
	}
	for _, t := range tasks {
		visit(t)
	}
}
