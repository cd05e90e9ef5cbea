package sim

// Where a scheduled event sits; Event.index holds a heap slot (>= 0) or
// one of these.
const (
	offQueue = -1 // fired, stopped out of the heap, or not yet queued
	inLane   = -2 // in the zero-delay lane
)

// queue holds the scheduled events in two parts that together fire in
// (at, seq) order, the determinism guarantee:
//
//   - heap, a binary min-heap of the events scheduled for later, from
//     which Stop removes an event at once;
//   - lane, a FIFO of the events scheduled for the current instant.
//     Every lane event has at == now (time cannot advance past a lane
//     event, which orders before every heap event at a later instant)
//     and they arrive in seq order, so the lane is sorted by
//     construction and costs no sifting. A stopped lane event stays
//     until it reaches the head and is skipped there.
type queue struct {
	heap []*Event
	lane []*Event
	head int // lane[head:] is queued
}

// before is the firing order: time, then scheduling sequence.
func before(a, b *Event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// len is the number of queued events, including stopped lane events.
func (q *queue) len() int { return len(q.heap) + len(q.lane) - q.head }

func (q *queue) pushLane(ev *Event) {
	ev.index = inLane
	q.lane = append(q.lane, ev)
}

func (q *queue) pushHeap(ev *Event) {
	ev.index = len(q.heap)
	q.heap = append(q.heap, ev)
	q.up(ev.index)
}

// next returns the earliest queued event without removing it, or nil.
func (q *queue) next() *Event {
	var h *Event
	if len(q.heap) > 0 {
		h = q.heap[0]
	}
	if q.head == len(q.lane) {
		return h
	}
	if l := q.lane[q.head]; h == nil || before(l, h) {
		return l
	}
	return h
}

// take removes ev, the event next just returned.
func (q *queue) take(ev *Event) {
	if ev.index == inLane {
		q.lane[q.head] = nil
		if q.head++; q.head == len(q.lane) {
			// Drained: reuse the backing array from the start.
			q.lane, q.head = q.lane[:0], 0
		}
		ev.index = offQueue
		return
	}
	q.remove(0)
}

// remove deletes the heap event at slot i.
func (q *queue) remove(i int) {
	h := q.heap
	n := len(h) - 1
	ev := h[i]
	if i != n {
		h[i] = h[n]
		h[i].index = i
	}
	h[n] = nil
	q.heap = h[:n]
	if i != n && !q.down(i) {
		q.up(i)
	}
	ev.index = offQueue
}

// up moves the event at slot j toward the root until its parent orders
// before it.
func (q *queue) up(j int) {
	h := q.heap
	ev := h[j]
	for j > 0 {
		i := (j - 1) / 2
		parent := h[i]
		if !before(ev, parent) {
			break
		}
		h[j] = parent
		parent.index = j
		j = i
	}
	h[j] = ev
	ev.index = j
}

// down moves the event at slot i0 toward the leaves until both children
// order after it, and reports whether it moved.
func (q *queue) down(i0 int) bool {
	h := q.heap
	n := len(h)
	ev := h[i0]
	i := i0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(h[r], h[c]) {
			c = r
		}
		if !before(h[c], ev) {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = ev
	ev.index = i
	return i > i0
}
