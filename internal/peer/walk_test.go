package peer

import (
	"strings"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/rntree"
	"repro/internal/transport"
)

// walkLen is the RN-Tree's limited random walk length (rntree's
// randomWalkLen, three steps as in the paper).
const walkLen = 3

// batchCluster cold-starts n simulated peers, peer 0 with its tree's
// metrics in o, and returns once the grid has settled.
func batchCluster(t *testing.T, seed int64, n int, o *obs.Obs) *cluster {
	c := newCluster(t, seed, 0, fast)
	first := fast
	first.Tree.Obs = o
	c.add(first)
	for len(c.peers) < n {
		c.add(fast)
	}
	for i := range c.peers {
		c.launch(t, i)
	}
	c.e.RunFor(time.Minute)
	return c
}

// submitBatch submits jobs one-second jobs from peer 0 in one SubmitAll
// (one InjectBatch of up to 64), calls submitted as SubmitAll returns
// (before the client monitor routes anything), and waits for them all.
// It returns how many rnt.walk requests the network delivered while
// SubmitAll ran.
func submitBatch(t *testing.T, c *cluster, jobs int, submitted func()) int64 {
	client := c.peers[0]
	client.Grid.StartClientMonitor(10 * time.Second)
	var walks int64
	done := false
	client.Host.Go("client", func(rt transport.Runtime) {
		defer func() { done = true }()
		before := c.net.Stats.ByMethod[rntree.MWalk]
		specs := make([]grid.JobSpec, jobs)
		for i := range specs {
			specs[i] = grid.JobSpec{Work: time.Second}
		}
		// An inject error is informational: the retry and the monitor
		// recover the job, and Check below is the verdict.
		_, _ = client.Grid.SubmitAll(rt, specs)
		walks = c.net.Stats.ByMethod[rntree.MWalk] - before
		submitted()
		if left := client.Grid.AwaitAll(rt, rt.Now()+5*time.Minute); left != 0 {
			t.Errorf("%d of %d jobs unfinished", left, jobs)
		}
	})
	for !done {
		c.e.RunFor(10 * time.Second)
	}
	if err := c.rec.Check(jobs); err != nil {
		t.Fatal(err)
	}
	return walks
}

// TestBatchWalksOneCallPerPeerAndRound: a 64-job batch on an 8-peer
// grid walks in rounds, one rnt.walk per remote peer and round, so at
// most walkLen x 7 calls; walking job by job sent about 64 x 3 x 7/8.
// Every walk stays within walkLen steps and every job is delivered
// once.
func TestBatchWalksOneCallPerPeerAndRound(t *testing.T) {
	const jobs, peers = 64, 8
	o := obs.New()
	c := batchCluster(t, 3, peers, o)
	h := o.Registry().Histogram("rntree_walk_hops", obs.DefBucketsHops)
	var walked int64
	var top float64
	walks := submitBatch(t, c, jobs, func() {
		// Under 100 walks the 0.99 quantile lies in the highest
		// non-empty bucket, whose bounds are whole hop counts up to 4.
		walked, top = h.N(), h.Quantile(0.99)
	})
	if walks > walkLen*(peers-1) {
		t.Errorf("a %d-job batch sent %d rnt.walk calls, want at most %d", jobs, walks, walkLen*(peers-1))
	}
	if walked != jobs {
		t.Fatalf("%d walks recorded, want %d", walked, jobs)
	}
	if top > walkLen {
		t.Errorf("a walk took more than %d hops (0.99 quantile %.2f)", walkLen, top)
	}
}

// TestBatchWalkThroughCrashedPeer: a peer crashes while every routing
// table still lists it, and a 64-job batch is injected at once. Walks
// reach it and fail there, each ending at its own previous hop, while
// their batch-mates walk on; every job is still delivered exactly
// once.
func TestBatchWalkThroughCrashedPeer(t *testing.T) {
	const jobs, peers = 64, 8
	c := batchCluster(t, 4, peers, nil)
	dead := c.peers[5].Host.Addr()
	c.net.Endpoint(dead).Crash()
	mark := len(c.log)
	submitBatch(t, c, jobs, func() {})
	toDead, elsewhere := 0, 0
	for _, line := range c.log[mark:] {
		if !strings.Contains(line, " "+rntree.MWalk+" false") {
			continue
		}
		if strings.Contains(line, ">"+string(dead)+" ") {
			toDead++
		} else {
			elsewhere++
		}
	}
	if toDead == 0 || elsewhere == 0 {
		t.Fatalf("%d rnt.walk calls to the crashed peer and %d to others, want some of each", toDead, elsewhere)
	}
}

// TestLiveBatchWalk: the same batch over loopback TCP. A client that
// is not a peer sends one 64-job grid.injectbatch to peer 0; every job
// comes back once, and peer 0 makes fewer than 0.5 rnt.walk calls per
// job (one per remote peer and round; job by job it made about 2.4).
func TestLiveBatchWalk(t *testing.T) {
	const jobs, peers = 64, 5
	ps, obss := liveGrid(t, peers)
	injectLive(t, ps, jobs)
	walks := clientCalls(obss[:1], rntree.MWalk)
	if float64(walks) >= 0.5*jobs {
		t.Errorf("%d rnt.walk calls for %d jobs, want fewer than %.0f", walks, jobs, 0.5*jobs)
	}
	t.Logf("%d rnt.walk calls for %d jobs", walks, jobs)
}
