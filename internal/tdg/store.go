package tdg

// Store is storage for the edge lists of a group of tasks: predecessor
// slices, successor and reader links, and per-datum records, carved
// from chunks the store allocates and never moves. The graph fills the
// store a task is submitted into; the lists stay readable through the
// tasks (Preds, Succs) for as long as the tasks are.
//
// A store's lists point only at tasks of its own group, as long as the
// group's data are not accessed by tasks of another store, so dropping
// a group's tasks drops its store too. The closed-system runtime keeps
// one store for the run; the open-system runtime gives each admitted
// job its own, because tokens never cross jobs. A store shared by jobs
// would chain finished jobs together through its chunks.
//
// The zero Store is ready to use.
type Store struct {
	preds chunks[*Task]
	links chunks[link]
	data  chunks[datum]
	free  *link // reader links released by a write, reused first
}

// link is one entry of a successor list or a datum's reader list.
type link struct {
	task *Task
	next *link
}

// datum is the graph's state for one token: its last writer and the
// readers since that write, in access order.
type datum struct {
	writer        *Task
	readers, last *link
}

// Chunk bounds: a store's first chunks fit its size hint within these,
// and each new chunk of a kind is twice the last, up to maxChunk.
const (
	minChunk = 32
	maxChunk = 4096
)

// chunks hands out entries of one kind from fixed chunks.
type chunks[T any] struct {
	rest []T // unused rest of the current chunk
	next int // length of the next chunk
}

// take returns n fresh entries, from a new chunk if the current one is
// short.
func (c *chunks[T]) take(n int) []T {
	if len(c.rest) < n {
		size := max(n, c.next, minChunk)
		c.rest = make([]T, size)
		c.next = min(2*size, maxChunk)
	}
	out := c.rest[:n:n]
	c.rest = c.rest[n:]
	return out
}

// Reset drops the store's chunks and sizes its first new ones for tasks
// whose Ins hold ins tokens and whose Outs hold outs in all. Reads bound
// the reader links and, in most programs, the edges; writes bound the
// data, unless tokens are read but never written. A chunk that runs
// out is followed by a larger one.
func (s *Store) Reset(ins, outs int) {
	*s = Store{}
	s.preds.next = min(ins, maxChunk)
	s.links.next = min(2*ins, maxChunk)
	s.data.next = min(outs, maxChunk)
}

// keepPreds copies a task's resolved predecessors into the store.
func (s *Store) keepPreds(ps []*Task) []*Task {
	if len(ps) == 0 {
		return nil
	}
	out := s.preds.take(len(ps))
	copy(out, ps)
	return out
}

// link returns a fresh link to t: a released reader link first, else a
// new entry.
func (s *Store) link(t *Task) *link {
	l := s.free
	if l != nil {
		s.free = l.next
	} else {
		l = &s.links.take(1)[0]
	}
	*l = link{task: t}
	return l
}

// datum returns a fresh datum record.
func (s *Store) datum() *datum { return &s.data.take(1)[0] }

// addReader appends t to d's readers.
func (d *datum) addReader(s *Store, t *Task) {
	l := s.link(t)
	if d.last == nil {
		d.readers = l
	} else {
		d.last.next = l
	}
	d.last = l
}

// write makes t d's last writer and releases d's readers to s.
func (d *datum) write(s *Store, t *Task) {
	d.writer = t
	if d.last != nil {
		d.last.next = s.free
		s.free = d.readers
		d.readers, d.last = nil, nil
	}
}
