package peer

import (
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/rntree"
	"repro/internal/transport"
)

// TestBatchMatchOneSearchPerNode: a 64-job batch on an 8-peer grid under
// RN-Tree matching reaches a few owners, and each owner matches the jobs
// it took in one tree search that asks each other peer at most once: at
// most 7 rnt.search calls per owner batch, where matching job by job
// sent a few per job. Every job is delivered once.
func TestBatchMatchOneSearchPerNode(t *testing.T) {
	const jobs, peers = 64, 8
	c := batchCluster(t, 3, peers, nil)
	searches := c.net.Stats.ByMethod[rntree.MSearch]
	handoffs := c.net.Stats.ByMethod[grid.MOwnBatch]
	submitBatch(t, c, jobs, func() { handoffs = c.net.Stats.ByMethod[grid.MOwnBatch] - handoffs })
	searches = c.net.Stats.ByMethod[rntree.MSearch] - searches
	// One owner batch per grid.ownbatch hand-off, and one more when the
	// injecting peer owns some of the jobs itself.
	if bound := (handoffs + 1) * (peers - 1); searches > bound {
		t.Errorf("%d jobs in %d hand-offs sent %d rnt.search calls, want at most %d", jobs, handoffs, searches, bound)
	}
	t.Logf("%d jobs in %d hand-offs: %d rnt.search calls", jobs, handoffs, searches)
}

// TestLiveBatchMatch: the same over loopback TCP, five peers and one
// 64-job grid.injectbatch from a client that is not a peer. Every job
// comes back once, and the owners' clients make at most 4 rnt.search
// calls per owner batch.
func TestLiveBatchMatch(t *testing.T) {
	const jobs, peers = 64, 5
	ps, obss := liveGrid(t, peers)
	// A search asks each peer once only on a tree that has held still
	// for longer than a re-parented child lingers in its old parent's
	// children (three aggregation periods, 300 ms).
	settledTree(t, ps, 25)
	before := clientCalls(obss, rntree.MSearch)
	start := time.Now()
	results := injectLive(t, ps, jobs)
	searches := clientCalls(obss, rntree.MSearch) - before
	owners := map[transport.Addr]bool{}
	for _, r := range results {
		owners[r.Owner] = true
	}
	if bound := int64((peers - 1) * len(owners)); searches > bound {
		t.Errorf("%d jobs on %d owners: %d rnt.search calls, want at most %d", jobs, len(owners), searches, bound)
	}
	t.Logf("%d jobs on %d owners: %d rnt.search calls, all delivered in %v", jobs, len(owners), searches, time.Since(start).Round(time.Millisecond))
}
