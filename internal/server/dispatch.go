package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"grca/internal/apps/cdn"
	"grca/internal/event"
	"grca/internal/ingestlog"
	"grca/internal/locus"
	"grca/internal/obs"
)

// batch is one dispatched ingest batch moving through the commit
// pipeline. The dispatcher fills seq/kind/stored-slots and routes
// sub-batches to shards; appliers write stored instances into their
// positions and count pending down; the finisher waits for ready, runs
// the streaming processors, and replies.
type batch struct {
	seq  int
	kind byte
	// stored collects the committed instances in original batch order,
	// across shards: applier j writes its events into its own positions.
	// The finisher reads it only after ready closes; the countdown's
	// atomic decrement and the channel close order those writes before
	// the reads.
	stored  []*event.Instance
	pending atomic.Int32
	ready   chan struct{}
	// res is the reply. Pre-set for inline-applied batches (feeds,
	// finalize, dispatch-time failures); computed by the finisher for
	// event batches.
	res   taskResult
	reply chan taskResult

	errMu sync.Mutex
	err   error
	errSt int
}

// fail records the batch's first commit error (journal or store);
// the finisher turns it into the reply.
func (bt *batch) fail(status int, err error) {
	bt.errMu.Lock()
	if bt.err == nil {
		bt.err, bt.errSt = err, status
	}
	bt.errMu.Unlock()
}

func (bt *batch) firstErr() (int, error) {
	bt.errMu.Lock()
	defer bt.errMu.Unlock()
	return bt.errSt, bt.err
}

// closedChan is the pre-closed ready channel shared by inline-applied
// batches.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// shardTask is one shard's slice of a batch, or a barrier. A barrier
// (wait != nil) carries no events: the applier acknowledges it after
// committing everything queued before it, which is how the dispatcher
// waits for all shards to catch up before applying feeds or finalize
// inline.
type shardTask struct {
	bt     *batch
	events []event.Instance // IDs pre-assigned by the dispatcher
	pos    []int            // events[j] commits into bt.stored[pos[j]]
	jrec   []byte           // journal record, on the one owner shard
	jseq   int              // jrec's sequence, for the sealer's watermark
	wait   *sync.WaitGroup  // barrier
}

// dispatch admits one validated ingest request into the commit pipeline
// and waits for its result. The admission — everything order-sensitive:
// sequence numbering, ID allocation, routing, queue placement, and the
// inline collector phases — happens under dispatchMu in admit; the wait
// happens outside it.
func (s *Server) dispatch(ctx context.Context, t task) taskResult {
	bt, res := s.admit(&t)
	if bt == nil {
		return res
	}
	select {
	case r := <-bt.reply:
		return r
	case <-ctx.Done():
		return errResult(http.StatusServiceUnavailable, "timed out waiting for the commit pipeline")
	}
}

// admit routes one task into the pipeline under dispatchMu. A nil batch
// means the task was rejected (or applied to completion) and res is the
// final answer; otherwise the caller waits on the batch's reply channel.
func (s *Server) admit(t *task) (*batch, taskResult) {
	s.dispatchMu.Lock()
	defer s.dispatchMu.Unlock()
	select {
	case <-s.closing:
		return nil, errResult(http.StatusServiceUnavailable, "server is shutting down")
	default:
	}
	switch t.kind {
	case ingestlog.Feed:
		return s.dispatchFeed(t)
	case ingestlog.Finalize:
		return s.dispatchFinalize()
	default:
		return s.dispatchEvents(t)
	}
}

// shardOf routes a location, caching the answer: post-finalize routing
// walks the conversion lattice's component map, and ingest streams
// concentrate on few distinct locations. The cache lives under
// dispatchMu and resets when the routing function changes.
func (s *Server) shardOf(loc locus.Location) int {
	if i, ok := s.routeCache[loc]; ok {
		return i
	}
	i := s.st.ShardFor(loc)
	if len(s.routeCache) < 1<<16 {
		s.routeCache[loc] = i
	}
	return i
}

// dispatchEvents admits a normalized-event batch: reject while any
// involved shard queue is full (before consuming a sequence number or
// IDs, so both stay dense), then allocate, split by shard, and enqueue.
// The journal record — the verbatim request body — goes to the shard of
// the batch's first event; replaying the merged journals in sequence
// order re-allocates the same IDs to the same events.
func (s *Server) dispatchEvents(t *task) (*batch, taskResult) {
	// An empty batch has no first event to own the journal record and
	// nothing to commit. Handlers reject these before dispatch, but guard
	// here too: reaching routes[0] on an empty slice would panic under
	// dispatchMu after consuming a sequence number the finisher never
	// sees, wedging every later waitFinisher.
	if len(t.events) == 0 {
		return nil, errResult(http.StatusBadRequest, "empty event batch")
	}
	n := len(s.shards)
	routes := make([]int, len(t.events))
	perShard := make([]int, n)
	involved := 0
	for j := range t.events {
		i := s.shardOf(t.events[j].Loc)
		routes[j] = i
		if perShard[i] == 0 {
			involved++
		}
		perShard[i]++
	}
	depth, capacity := 0, 0
	for i, sh := range s.shards {
		depth += len(sh.queue)
		capacity += cap(sh.queue)
		if perShard[i] > 0 && len(sh.queue) == cap(sh.queue) {
			mRejected.Inc()
			// Retry-After scales with how loaded the whole pipeline is:
			// an almost-empty pipeline with one hot shard retries fast, a
			// saturated one backs off harder.
			return nil, taskResult{
				status:     http.StatusTooManyRequests,
				err:        fmt.Errorf("ingest queue full (shard %d), retry later", i),
				retryAfter: 1 + (3*depth)/max(capacity, 1),
			}
		}
	}
	mQueueDepth.Set(int64(depth))
	// The finisher's backlog gates admission too: committed batches sit
	// in finishQ until the streaming processors catch up, and the send
	// below happens under dispatchMu, so it must never block. Only
	// admission (under this lock) sends to finishQ and the finisher only
	// receives, so a vacancy observed here is still there at the send.
	if len(s.finishQ) == cap(s.finishQ) {
		mRejected.Inc()
		return nil, taskResult{
			status:     http.StatusTooManyRequests,
			err:        fmt.Errorf("ingest pipeline backlogged, retry later"),
			retryAfter: 1 + (3*(depth+len(s.finishQ)))/max(capacity+cap(s.finishQ), 1),
		}
	}

	seq := s.seq
	s.seq++
	block := s.st.AllocBlock(len(t.events))
	bt := &batch{
		seq: seq, kind: t.kind,
		stored: make([]*event.Instance, len(t.events)),
		ready:  make(chan struct{}),
		reply:  make(chan taskResult, 1),
	}
	bt.pending.Store(int32(involved))
	subs := make([]*shardTask, n)
	for j := range t.events {
		i := routes[j]
		st := subs[i]
		if st == nil {
			st = &shardTask{
				bt:     bt,
				events: make([]event.Instance, 0, perShard[i]),
				pos:    make([]int, 0, perShard[i]),
			}
			subs[i] = st
		}
		ev := t.events[j]
		ev.ID = block + j
		st.events = append(st.events, ev)
		st.pos = append(st.pos, j)
	}
	owner := routes[0] // non-empty: guarded at the top
	subs[owner].jrec = ingestlog.Encode(seq, t.kind, "", t.raw)
	subs[owner].jseq = seq
	s.sealer.assign(owner, seq)
	for i, st := range subs {
		if st != nil {
			s.shards[i].queue <- *st // admission guaranteed space
		}
	}
	s.finishQ <- bt
	return bt, taskResult{}
}

// dispatchFeed applies a raw feed batch inline: the collector's parse
// state is a single shared structure, so feeds serialize on dispatchMu
// by design (they are the bulk-load phase, not the streaming fast
// path). The barrier first drains every shard queue — the collector's
// Adds go straight to the shards, and a shard applies IDs in order, so
// all lower-ID queued events must be committed before the feed
// allocates higher ones.
func (s *Server) dispatchFeed(t *task) (*batch, taskResult) {
	if s.isFinalized() {
		return nil, errResult(http.StatusConflict, "feeds are closed: the system is finalized (use events)")
	}
	// Feeds reply through finishQ too; refuse while the finisher is
	// saturated so the send at the end can never block under dispatchMu.
	// (Finalize needs no such gate: waitFinisher drains finishQ first.)
	if len(s.finishQ) == cap(s.finishQ) {
		mRejected.Inc()
		depth, capacity := s.queueTotals()
		return nil, taskResult{
			status:     http.StatusTooManyRequests,
			err:        fmt.Errorf("ingest pipeline backlogged, retry later"),
			retryAfter: 1 + (3*(depth+len(s.finishQ)))/max(capacity+cap(s.finishQ), 1),
		}
	}
	s.barrier()
	seq := s.seq
	s.seq++
	bt := &batch{seq: seq, kind: ingestlog.Feed, ready: closedChan, reply: make(chan taskResult, 1)}
	// The fsynced journal append is the commit point; it precedes the
	// apply so an invalid batch is journaled too — replay hits the same
	// deterministic parse error and converges on the same state.
	rec := ingestlog.Encode(seq, ingestlog.Feed, t.source, t.lines)
	s.sealer.assign(0, seq)
	err := appendCommit(s.shards[0].jour, rec)
	s.sealer.done(0, seq)
	if err != nil {
		bt.res = errResult(http.StatusInternalServerError, "journal: %v", err)
		s.finishQ <- bt
		return bt, taskResult{}
	}
	before := s.st.NextID()
	if err := s.coll.Ingest(t.source, bytes.NewReader(t.lines)); err != nil {
		bt.res = errResult(http.StatusBadRequest, "%v", err)
	} else {
		stored := s.st.NextID() - before
		mEvents.Add(int64(stored))
		bt.res = taskResult{status: http.StatusOK, resp: IngestResponse{Stored: stored}}
	}
	s.finishQ <- bt
	return bt, taskResult{}
}

// dispatchFinalize closes the feed phase and installs the serving
// artifacts. It drains the whole pipeline first — the barrier commits
// every queued event, waitFinisher drains the finisher — so the rollup
// seed that installServing derives sees exactly the events of all
// acknowledged batches, and no batch straddles the routing change.
func (s *Server) dispatchFinalize() (*batch, taskResult) {
	if s.isFinalized() {
		return nil, errResult(http.StatusConflict, "already finalized")
	}
	s.barrier()
	s.waitFinisher()
	seq := s.seq
	s.seq++
	bt := &batch{seq: seq, kind: ingestlog.Finalize, ready: closedChan, reply: make(chan taskResult, 1)}
	s.sealer.assign(0, seq)
	err := appendCommit(s.shards[0].jour, ingestlog.Encode(seq, ingestlog.Finalize, "", nil))
	s.sealer.done(0, seq)
	if err != nil {
		bt.res = errResult(http.StatusInternalServerError, "journal: %v", err)
		s.finishQ <- bt
		return bt, taskResult{}
	}
	bt.res = s.applyFinalize()
	s.finishQ <- bt
	return bt, taskResult{}
}

func (s *Server) applyFinalize() taskResult {
	if err := s.coll.Finalize(); err != nil {
		return errResult(http.StatusInternalServerError, "finalize: %v", err)
	}
	cdn.MaterializeEgressChanges(s.coll, s.cfg.Bundle.CDN, s.coll.WindowStart, s.coll.WindowEnd)
	if err := s.installServing(false); err != nil {
		return errResult(http.StatusInternalServerError, "%v", err)
	}
	return taskResult{status: http.StatusOK}
}

// barrier blocks until every shard applier has committed everything
// queued before it. Callers hold dispatchMu, so nothing new can enter
// the queues while it waits.
func (s *Server) barrier() {
	var wg sync.WaitGroup
	wg.Add(len(s.shards))
	for _, sh := range s.shards {
		sh.queue <- shardTask{wait: &wg}
	}
	wg.Wait()
}

// waitFinisher blocks until the finisher has replied to every batch
// dispatched so far. Callers hold dispatchMu; the finisher never takes
// it, so it drains independently.
func (s *Server) waitFinisher() {
	target := s.seq - 1
	s.finishMu.Lock()
	for s.finishedSeq < target {
		s.finishCond.Wait()
	}
	s.finishMu.Unlock()
}

// applier is shard sh's single writer: it drains the queue into commit
// groups so the journal fsync is amortized across every batch already
// waiting — group commit per shard, with the bounded queue as the wait
// window, so fsync amortization grows exactly when load does. A barrier
// ends its group: the dispatcher is waiting on it and nothing can be
// queued behind it.
func (s *Server) applier(sh *shard) {
	defer close(sh.done)
	for {
		t, ok := <-sh.queue
		if !ok {
			return
		}
		group := []shardTask{t}
		if t.wait == nil {
		drain:
			for {
				select {
				case t2, ok := <-sh.queue:
					if !ok {
						break drain
					}
					group = append(group, t2)
					if t2.wait != nil {
						break drain
					}
				default:
					break drain
				}
			}
		}
		s.applyShardGroup(sh, group)
	}
}

// applyShardGroup commits one group on one shard: stage the journal
// records this shard owns, fsync once (each batch's commit point),
// insert every event into the store, then count each batch down.
// Insertions proceed even for a batch whose journal append failed — its
// shards must stay mutually consistent and its reply is an error either
// way; the next restart rebuilds the store from what the journals hold.
func (s *Server) applyShardGroup(sh *shard, group []shardTask) {
	began := obs.Now()
	var jerr error
	staged := 0
	for i := range group {
		t := &group[i]
		if t.jrec == nil {
			continue
		}
		if jerr == nil {
			if err := sh.jour.AppendNoSync(t.jrec); err != nil {
				jerr = err
			} else {
				staged++
			}
		}
		if jerr != nil {
			t.bt.fail(http.StatusInternalServerError, fmt.Errorf("journal: %v", jerr))
		}
	}
	if staged > 0 {
		if err := sh.jour.Sync(); err != nil {
			for i := range group {
				if group[i].jrec != nil {
					group[i].bt.fail(http.StatusInternalServerError, fmt.Errorf("journal: %v", err))
				}
			}
		} else {
			mFsyncs.Inc()
			mCommitSecs.ObserveDuration(obs.Since(began))
		}
	}
	// Every owned record's fate is settled — durably journaled, or failed
	// and never appearing — so the sealer's watermark can move past them.
	for i := range group {
		if group[i].jrec != nil {
			s.sealer.done(sh.idx, group[i].jseq)
		}
	}
	for i := range group {
		t := &group[i]
		for j := range t.events {
			stored, err := sh.st.Put(t.events[j])
			if err != nil {
				t.bt.fail(http.StatusInternalServerError, fmt.Errorf("store: %v", err))
				continue
			}
			t.bt.stored[t.pos[j]] = stored
		}
	}
	for i := range group {
		t := &group[i]
		if t.wait != nil {
			t.wait.Done()
			continue
		}
		if t.bt.pending.Add(-1) == 0 {
			close(t.bt.ready)
		}
	}
}

// finisher is the pipeline's single join point: batches arrive on
// finishQ in dispatch (sequence) order, and for each one it waits for
// all involved shards to commit, runs the streaming processors over the
// stored events in original order, and replies. Observing strictly in
// sequence order on one goroutine is what makes responses — diagnosis
// lists included — byte-identical for every shard count.
func (s *Server) finisher() {
	defer close(s.finishDone)
	for bt := range s.finishQ {
		<-bt.ready
		switch bt.kind {
		case ingestlog.Events, ingestlog.EventsWire:
			if status, err := bt.firstErr(); err != nil {
				bt.res = taskResult{status: status, err: err}
			} else {
				bt.res = s.observeBatch(bt)
			}
		}
		mBatches.Inc()
		bt.reply <- bt.res
		s.finishMu.Lock()
		s.finishedSeq = bt.seq
		s.finishCond.Broadcast()
		s.finishMu.Unlock()
	}
}

// observeBatch runs the committed events of one batch through every
// application's streaming processor, in batch order, collecting the
// response the same way the pre-sharding single applier did.
func (s *Server) observeBatch(bt *batch) taskResult {
	resp := s.observeStored(bt.stored)
	return taskResult{status: http.StatusOK, resp: resp}
}

// observeStored runs committed instances through every application's
// streaming processor in order. Shared by the finisher (primary) and
// the journal-stream apply path (follower), so both sides feed the
// processors the identical event sequence.
func (s *Server) observeStored(stored []*event.Instance) IngestResponse {
	var resp IngestResponse
	s.mu.RLock()
	procs := s.procs
	s.mu.RUnlock()
	specs := appSpecs()
	for _, in := range stored {
		if in == nil {
			continue
		}
		resp.Stored++
		for _, a := range specs { // stable app order
			p, ok := procs[a.name]
			if !ok {
				continue
			}
			ds, late := p.ObserveStored(in)
			if late {
				resp.Late++
			}
			for _, d := range ds {
				dj := diagnosisJSON(d)
				dj.App = a.name
				resp.Diagnoses = append(resp.Diagnoses, dj)
			}
		}
	}
	mEvents.Add(int64(resp.Stored))
	return resp
}
