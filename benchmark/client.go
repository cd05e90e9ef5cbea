package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/nettransport"
	"repro/internal/resource"
	"repro/internal/transport"
)

// clientJob is the load generator's record of one submitted job. Times
// are on the benchmark's own clock (liveClient.now), because every
// nettransport.Host counts from its own epoch.
type clientJob struct {
	id       ids.ID
	due      time.Duration // open loop: the instant the schedule called for
	sendAt   time.Duration // just before the first inject RPC carrying it
	resultAt time.Duration // first result's arrival at the client
	exec     time.Duration // run node's own finish - start
	got      int           // results received (1 = exactly once)
	digestOK bool
	gaveUp   bool // never accepted by an injection node
}

// liveClient is the single load-generating host: it injects jobs over
// pooled connections (one per injection node), receives grid.result
// calls, and is the correctness oracle for a live run.
type liveClient struct {
	host  *nettransport.Host
	epoch time.Time
	cons  []resource.Constraints // job i uses cons[i%len]
	work  time.Duration

	mu          sync.Mutex
	jobs        []clientJob
	measured    int // jobs[:measured] were warm-up and are not reported
	bySeq       map[ids.ID]int
	outstanding int
	unknown     int // results for a GUID this client never submitted
	resubmits   int // items re-sent after a rejection or transport error
	lateMax     time.Duration
	rpcLat      []float64 // inject RPC round trips, ms

	tokens chan struct{} // closed loop: one token per window slot
}

// outputKB is what every benchmark job declares; the expected digest
// is computed from it.
const outputKB = 1

func newLiveClient(port int, epoch time.Time, cons []resource.Constraints, work time.Duration) (*liveClient, error) {
	host, err := nettransport.Listen(fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return nil, err
	}
	c := &liveClient{host: host, epoch: epoch, cons: cons, work: work, bySeq: make(map[ids.ID]int)}
	host.Handle(grid.MResult, c.handleResult)
	return c, nil
}

func (c *liveClient) now() time.Duration { return time.Since(c.epoch) }

// newJobs registers the next n jobs and returns their inject requests.
// Registration precedes sending because a work=0 job's result can come
// back before the inject RPC that carried it returns.
func (c *liveClient) newJobs(n int) []grid.InjectReq {
	reqs := make([]grid.InjectReq, n)
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range reqs {
		seq := len(c.jobs)
		id := grid.JobGUID(c.host.Addr(), seq, 0)
		c.jobs = append(c.jobs, clientJob{id: id})
		c.bySeq[id] = seq
		reqs[i] = grid.InjectReq{
			Client: c.host.Addr(), Seq: seq, Cons: c.cons[seq%len(c.cons)],
			Work: c.work, InputKB: 4, OutputKB: outputKB,
		}
	}
	c.outstanding += n
	return reqs
}

func (c *liveClient) handleResult(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	at := c.now()
	res := req.(grid.ResultReq).Res
	c.mu.Lock()
	seq, ok := c.bySeq[res.JobID]
	if !ok {
		c.unknown++
	}
	c.mu.Unlock()
	if !ok {
		return grid.ResultResp{}, nil
	}
	// The expected digest is a hash; keep it out of the lock every
	// sender and every other result contends for.
	digestOK := res.Err == "" && res.Digest == grid.ResultDigest(c.host.Addr(), seq, outputKB, "")
	c.mu.Lock()
	j := &c.jobs[seq]
	j.got++
	first := j.got == 1
	if first {
		j.resultAt = at
		j.exec = res.Finished - res.Started
		j.digestOK = digestOK
	}
	// A job abandoned after an inject RPC error can still have been
	// accepted; its slot was already released by abandon.
	release := first && !j.gaveUp
	if release {
		c.outstanding--
	}
	c.mu.Unlock()
	if release && c.tokens != nil {
		c.tokens <- struct{}{}
	}
	return grid.ResultResp{}, nil
}

// stampSend marks the first send instant of each request.
func (c *liveClient) stampSend(reqs []grid.InjectReq) {
	at := c.now()
	c.mu.Lock()
	for _, r := range reqs {
		if j := &c.jobs[r.Seq]; j.sendAt == 0 {
			j.sendAt = at
		}
	}
	c.mu.Unlock()
}

func (c *liveClient) noteRPC(began time.Duration) {
	ms := (c.now() - began).Seconds() * 1e3
	c.mu.Lock()
	c.rpcLat = append(c.rpcLat, ms)
	c.mu.Unlock()
}

// abandon records jobs no injection node accepted after every retry.
func (c *liveClient) abandon(reqs []grid.InjectReq) {
	released := 0
	c.mu.Lock()
	for _, r := range reqs {
		if j := &c.jobs[r.Seq]; j.got == 0 {
			j.gaveUp = true
			c.outstanding--
			released++
		}
	}
	c.mu.Unlock()
	if c.tokens != nil {
		for ; released > 0; released-- {
			c.tokens <- struct{}{}
		}
	}
}

const injectTries = 10

// sendBatch delivers reqs to node in one grid.injectbatch RPC and
// re-sends whatever the node rejected (backpressure) or failed to route.
func (c *liveClient) sendBatch(rt transport.Runtime, node transport.Addr, reqs []grid.InjectReq) {
	c.stampSend(reqs)
	for try := 0; try < injectTries && len(reqs) > 0; try++ {
		began := c.now()
		raw, err := rt.CallT(node, grid.MInjectBatch, grid.InjectBatchReq{Items: reqs}, 30*time.Second)
		c.noteRPC(began)
		backoff := 100 * time.Millisecond
		var again []grid.InjectReq
		if err != nil {
			again = reqs
		} else {
			for k, r := range raw.(grid.InjectBatchResp).Results {
				if r.RetryAfterMS > 0 || r.Err != "" {
					again = append(again, reqs[k])
					if d := time.Duration(r.RetryAfterMS) * time.Millisecond; d > backoff {
						backoff = d
					}
				}
			}
		}
		if reqs = again; len(reqs) > 0 {
			c.mu.Lock()
			c.resubmits += len(reqs)
			c.mu.Unlock()
			rt.Sleep(backoff)
		}
	}
	c.abandon(reqs)
}

// sendOne delivers one job through the single-job grid.inject path.
func (c *liveClient) sendOne(rt transport.Runtime, node transport.Addr, req grid.InjectReq) {
	reqs := []grid.InjectReq{req}
	c.stampSend(reqs)
	for try := 0; try < injectTries; try++ {
		began := c.now()
		raw, err := rt.CallT(node, grid.MInject, req, 30*time.Second)
		c.noteRPC(began)
		backoff := 100 * time.Millisecond
		if err == nil {
			ra := raw.(grid.InjectResp).RetryAfterMS
			if ra == 0 {
				return
			}
			backoff = time.Duration(ra) * time.Millisecond
		}
		c.mu.Lock()
		c.resubmits++
		c.mu.Unlock()
		rt.Sleep(backoff)
	}
	c.abandon(reqs)
}

// senders is how many activities inject concurrently; the issue caps
// the load generator at two.
const senders = 2

// runClosed drives a closed loop for dur: at most window jobs are
// outstanding, sent as batch-sized grid.injectbatch RPCs round-robin
// over the peers, and a slot frees when its job's first result arrives.
func (c *liveClient) runClosed(peers []transport.Addr, dur time.Duration, window, batch int) {
	c.tokens = make(chan struct{}, window) // slots are conserved, so a release never blocks
	for i := 0; i < window; i++ {
		c.tokens <- struct{}{}
	}
	stop := make(chan struct{})
	timer := time.AfterFunc(dur, func() { close(stop) })
	defer timer.Stop()

	var acquire sync.Mutex // one sender collects a batch of slots at a time
	var round int
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		c.host.Go("bench.send", func(rt transport.Runtime) {
			defer wg.Done()
			for {
				acquire.Lock()
				select {
				case <-stop: // checked first: with slots free, the select below could keep picking them
					acquire.Unlock()
					return
				default:
				}
				for got := 0; got < batch; got++ {
					select {
					case <-c.tokens:
					case <-stop:
						acquire.Unlock()
						return
					}
				}
				node := peers[round%len(peers)]
				round++
				acquire.Unlock()
				c.sendBatch(rt, node, c.newJobs(batch))
			}
		})
	}
	wg.Wait()
}

// runOpen drives an open loop: job i is due at i/rate seconds and is
// sent by one grid.inject RPC to peer i mod N whether or not earlier
// jobs have completed. Turnaround counts from the due instant, so a
// stalled generator shows up as latency and as lateness.
func (c *liveClient) runOpen(peers []transport.Addr, dur time.Duration, rate float64) {
	n := int(dur.Seconds() * rate)
	reqs := c.newJobs(n)
	start := c.now() + 10*time.Millisecond
	due := make([]time.Duration, n)
	c.mu.Lock()
	for i := range reqs {
		due[i] = start + time.Duration(float64(i)/rate*float64(time.Second))
		c.jobs[reqs[i].Seq].due = due[i]
	}
	c.mu.Unlock()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		s := s
		wg.Add(1)
		c.host.Go("bench.send", func(rt transport.Runtime) {
			defer wg.Done()
			for i := s; i < n; i += senders {
				if wait := due[i] - c.now(); wait > 0 {
					rt.Sleep(wait)
				} else {
					c.mu.Lock()
					if -wait > c.lateMax {
						c.lateMax = -wait
					}
					c.mu.Unlock()
				}
				c.sendOne(rt, peers[i%len(peers)], reqs[i])
			}
		})
	}
	wg.Wait()
}

// drain waits until every submitted job has a result or was abandoned.
func (c *liveClient) drain(limit time.Duration) {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		left := c.outstanding
		c.mu.Unlock()
		if left == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// endWarmup discards everything sent so far from the report. The
// warm-up has dialled every pooled connection, sent gob's type
// descriptions down each of them, and let the peers' run queues and
// the runtime's own pools reach their working size.
func (c *liveClient) endWarmup() {
	c.mu.Lock()
	c.measured = len(c.jobs)
	c.resubmits, c.lateMax, c.rpcLat = 0, 0, nil
	c.mu.Unlock()
}

// liveOutcome is what the oracle and the end-to-end metrics read off
// the client after a run.
type liveOutcome struct {
	submitted  int
	exactOnce  int // one result, expected digest
	duplicates int // surplus results
	missing    int // no result (includes abandoned jobs)
	wrong      int // a result whose digest is not grid.ResultDigest's
	unknown    int
	resubmits  int
	lateMaxMS  float64
	span       time.Duration // first send (or first due) -> last first-result
	turnaround []float64     // ms, due-or-send -> result, exactly-once jobs
	wait       []float64     // ms, turnaround minus the run node's exec time
	rpcLat     []float64     // ms
}

func (c *liveClient) outcome() liveOutcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	o := liveOutcome{
		submitted: len(c.jobs) - c.measured, unknown: c.unknown, resubmits: c.resubmits,
		lateMaxMS: c.lateMax.Seconds() * 1e3, rpcLat: append([]float64(nil), c.rpcLat...),
	}
	var first, last time.Duration
	for i := c.measured; i < len(c.jobs); i++ {
		j := &c.jobs[i]
		from := j.sendAt
		if j.due > 0 {
			from = j.due
		}
		if i == c.measured || from < first {
			first = from
		}
		switch {
		case j.got == 0:
			o.missing++
			continue
		case !j.digestOK:
			o.wrong++
		case j.got == 1:
			o.exactOnce++
			ta := j.resultAt - from
			o.turnaround = append(o.turnaround, ta.Seconds()*1e3)
			o.wait = append(o.wait, (ta-j.exec).Seconds()*1e3)
		}
		o.duplicates += j.got - 1
		if j.resultAt > last {
			last = j.resultAt
		}
	}
	o.span = last - first
	return o
}

// failed is how many submitted jobs were not delivered exactly once
// with the expected digest.
func (o liveOutcome) failed() int { return o.submitted - o.exactOnce }
