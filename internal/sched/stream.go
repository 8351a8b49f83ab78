// The stream layer: a long-lived, channel-fed scheduler and the package's
// only worker pool. A Stream accepts Submit calls for as long as it is
// open — the shape of a service that feeds simulation work to a pool
// continuously, the ROADMAP's "scheduler job streams" item. The batch
// layer is a client of it: RunBatch submits its fixed slice to a private
// Stream, closes it and waits for the drain.
package sched

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"vlasov6d/internal/runner"
)

// ErrStreamClosed is returned by Submit after Close.
var ErrStreamClosed = errors.New("sched: stream closed")

// Stream is a long-lived scheduler fed one Submit at a time. Construct
// with NewStream; the worker pool starts immediately and dispatches from a
// priority heap (higher Job.Priority first, submission order within a
// priority).
//
// Lifecycle:
//
//   - Submit enqueues a job; it fails with ErrStreamClosed after Close and
//     with the context error once the stream's context is cancelled.
//   - Close stops intake. Workers drain everything already queued, then the
//     Results channel closes — the graceful shutdown of a service.
//   - Cancelling the context stops running jobs through the runner's own
//     cancellation path, reports still-queued jobs Cancelled, and then
//     closes Results — the fast shutdown. No goroutines are left behind in
//     either case.
//
// Results must be consumed: workers deliver to the Results channel and
// will block (a natural back-pressure) if nobody reads it. Retries,
// per-job checkpoint directories and auto-resume follow the scheduler
// options exactly as in the batch layer (see the package comment).
type Stream struct {
	opts options
	ctx  context.Context
	// budget is the stream-lifetime core budget (nil without
	// WithCoreBudget): the live-job set it divides over churns with every
	// dispatch and completion.
	budget *CoreBudget

	mu      sync.Mutex
	cond    *sync.Cond
	pending jobHeap
	closed  bool
	seq     int
	// active holds the sanitised checkpoint keys of queued + running jobs
	// (only under WithJobCheckpoints): two live jobs sharing a key would
	// silently cross-resume, so Submit rejects the second. Re-submitting a
	// key after its job finishes is allowed — that is the resume path.
	active map[string]bool
	// jobs records every submission by id for Snapshot/Job/Cancel — the
	// status surface a control plane polls. Terminal records are kept as
	// history (a service reports the recent past, not just the live set)
	// up to the WithJobHistory bound; beyond it the oldest terminal
	// records are evicted so an always-on stream's memory stays bounded.
	jobs map[int]*jobRecord
	// terminal lists terminal record ids oldest-first — the eviction queue.
	terminal []int

	notifyMu sync.Mutex

	results chan Result
	done    chan struct{} // closed after all workers exit and results closes
}

// streamJob is one queued submission: the job, its submission sequence
// number (the FIFO tiebreak within a priority and the Update index), and
// the wall time it entered the queue (the start of its "queue" phase).
type streamJob struct {
	job Job
	seq int
	at  time.Time
}

// jobRecord tracks one submission's lifecycle for the status surface. The
// per-job context is derived from the stream's at Submit time; Cancel fires
// it, which stops the job wherever it is — still queued (the worker that
// eventually pops it reports Cancelled without running it) or mid-run
// (the runner's own cancellation path unwinds it between steps).
type jobRecord struct {
	name     string
	priority int
	until    float64
	status   Status
	attempt  int
	err      error
	cancel   context.CancelFunc
	ctx      context.Context
	// keyFreed marks the checkpoint key released. Cancelling a queued job
	// frees its key immediately (so the name is resubmittable before a
	// worker pops the stale entry), and the flag keeps the eventual pop
	// from releasing the key a *resubmitted* job now holds.
	keyFreed bool
}

// JobSnapshot is one submission's point-in-time state, as reported by
// Snapshot and Job.
type JobSnapshot struct {
	// ID is the submission id (SubmitID's return, Update.Index, Result.ID).
	ID int
	// Name echoes the job name.
	Name string
	// Priority echoes the job's dispatch priority.
	Priority int
	// Until echoes the job's clock target — the denominator a monitoring
	// plane needs to turn observed clock progress into an ETA.
	Until float64
	// Status is the lifecycle state. A cancelled-while-queued job reports
	// Cancelled as soon as Cancel is called, even though its Result is
	// delivered only when a worker pops it from the queue.
	Status Status
	// Attempt is the 1-based attempt the status belongs to (0 while
	// queued).
	Attempt int
	// Err is the most recent failure (Failed, Retrying) or cancellation
	// error, nil otherwise.
	Err error
}

// jobHeap is a max-heap on Priority with FIFO order within a priority.
type jobHeap []*streamJob

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].job.Priority != h[j].job.Priority {
		return h[i].job.Priority > h[j].job.Priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*streamJob)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// NewStream starts a stream scheduler: `workers` goroutines (default
// GOMAXPROCS) pulling from the priority queue until Close drains it or ctx
// cancels it. The options are the same as RunBatch's; WithWallClock
// anchors the shared budget at NewStream time.
func NewStream(ctx context.Context, opts ...Option) (*Stream, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	workers := o.workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var deadline time.Time
	if o.wall > 0 {
		deadline = time.Now().Add(o.wall)
	}
	s := &Stream{
		opts:    o,
		ctx:     ctx,
		jobs:    make(map[int]*jobRecord),
		results: make(chan Result),
		done:    make(chan struct{}),
	}
	if o.ckptDir != "" {
		s.active = make(map[string]bool)
	}
	if o.budgetSet {
		s.budget = NewCoreBudget(o.budget)
	}
	s.cond = sync.NewCond(&s.mu)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.work(deadline)
		}()
	}
	go func() {
		wg.Wait()
		close(s.results)
		close(s.done)
	}()
	// Cancellation must wake workers parked on the condvar. The watcher
	// exits with the pool, so an uncancelled long-lived stream does not
	// leak it past Close.
	go func() {
		select {
		case <-ctx.Done():
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		case <-s.done:
		}
	}()
	return s, nil
}

// Submit enqueues a job for dispatch. It returns ErrStreamClosed after
// Close, the context error once the stream's context is cancelled, and a
// validation error for a job without a factory or (under
// WithJobCheckpoints) a checkpoint key already queued or running. Safe for
// concurrent use.
func (s *Stream) Submit(job Job) error {
	_, err := s.SubmitID(job)
	return err
}

// SubmitID is Submit returning the submission id: the handle Cancel, Job
// and Result.ID identify this submission by. Ids are assigned in
// submission order starting at zero and are never reused.
func (s *Stream) SubmitID(job Job) (int, error) {
	if err := job.validate(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrStreamClosed
	}
	if err := s.ctx.Err(); err != nil {
		return 0, fmt.Errorf("sched: stream context cancelled: %w", err)
	}
	if s.active != nil {
		key := sanitizeJobName(job.Name)
		if s.active[key] {
			return 0, fmt.Errorf("sched: job %q: checkpoint key %q already queued or running", job.Name, key)
		}
		s.active[key] = true
	}
	id := s.seq
	jctx, jcancel := context.WithCancel(s.ctx)
	s.jobs[id] = &jobRecord{
		name:     job.Name,
		priority: job.Priority,
		until:    job.Until,
		status:   Queued,
		ctx:      jctx,
		cancel:   jcancel,
	}
	heap.Push(&s.pending, &streamJob{job: job, seq: id, at: time.Now()})
	s.seq++
	s.cond.Signal()
	return id, nil
}

// Cancel stops one submission by id: a queued job is reported Cancelled
// without ever constructing its solver (its Result is delivered when a
// worker pops it from the queue), a running job is stopped through the
// runner's own cancellation path at its next step boundary. Cancel reports
// whether it took effect — false for an unknown id or a job already in a
// terminal state. Cancelling a job during retry backoff cancels the retry.
func (s *Stream) Cancel(id int) bool {
	s.mu.Lock()
	rec, ok := s.jobs[id]
	if !ok || isTerminal(rec.status) || rec.ctx.Err() != nil {
		s.mu.Unlock()
		return false
	}
	// A still-queued job's checkpoint key frees now, not when a worker
	// eventually pops the stale heap entry: the cancellation is decided,
	// so the name must be immediately resubmittable.
	if rec.status == Queued {
		s.freeKeyLocked(rec)
	}
	cancel := rec.cancel
	s.mu.Unlock()
	// Fire outside the lock: the watcher goroutines context cancellation
	// wakes may themselves take s.mu.
	cancel()
	return true
}

// freeKeyLocked releases a record's checkpoint key exactly once. Callers
// hold s.mu.
func (s *Stream) freeKeyLocked(rec *jobRecord) {
	if s.active == nil || rec.keyFreed {
		return
	}
	rec.keyFreed = true
	delete(s.active, sanitizeJobName(rec.name))
}

// retireLocked enrols a now-terminal record in the history queue and
// evicts the oldest terminal records past the WithJobHistory bound.
// Callers hold s.mu.
func (s *Stream) retireLocked(id int) {
	s.terminal = append(s.terminal, id)
	for len(s.terminal) > s.opts.history {
		delete(s.jobs, s.terminal[0])
		s.terminal = s.terminal[1:]
	}
}

// isTerminal reports whether a status is final.
func isTerminal(st Status) bool {
	return st == Done || st == Failed || st == Cancelled
}

// snapshotLocked builds the external view of one record. A still-queued
// job whose per-job context is already cancelled reports Cancelled: the
// cancellation is decided, only its Result delivery waits for a worker.
func (r *jobRecord) snapshotLocked(id int) JobSnapshot {
	st := r.status
	if st == Queued && r.ctx.Err() != nil {
		st = Cancelled
	}
	return JobSnapshot{ID: id, Name: r.name, Priority: r.priority, Until: r.until,
		Status: st, Attempt: r.attempt, Err: r.err}
}

// Snapshot returns the point-in-time state of every retained submission
// (every live job plus up to WithJobHistory terminal ones), ordered by id —
// the per-job view a control plane serves from. Safe for concurrent use
// with Submit, Cancel and running workers.
func (s *Stream) Snapshot() []JobSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobSnapshot, 0, len(s.jobs))
	for id, rec := range s.jobs {
		out = append(out, rec.snapshotLocked(id))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Job returns the point-in-time state of one submission by id.
func (s *Stream) Job(id int) (JobSnapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok {
		return JobSnapshot{}, false
	}
	return rec.snapshotLocked(id), true
}

// Budget returns the stream's core budget (nil without WithCoreBudget) —
// the live Total/Held/Live counters a service exports as metrics.
func (s *Stream) Budget() *CoreBudget {
	return s.budget
}

// Close stops intake. Already-queued jobs still run to completion (drain);
// once the queue empties the workers exit and Results closes. Close is
// idempotent and returns immediately — wait on Results for the drain.
func (s *Stream) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Results returns the delivery channel: one Result per submitted job, in
// completion order. It closes after Close (once the queue drains) or after
// context cancellation (once queued jobs are flushed as Cancelled).
func (s *Stream) Results() <-chan Result {
	return s.results
}

// Pending returns the number of submitted jobs not yet picked up by a
// worker — the queue depth a service monitors.
func (s *Stream) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Submitted returns the number of jobs accepted by Submit so far.
func (s *Stream) Submitted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// work is one pool goroutine: pop the highest-priority job, execute it
// (with the shared retry/checkpoint executor), deliver its result; on
// cancellation flush the remaining queue as Cancelled.
func (s *Stream) work(deadline time.Time) {
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.closed && s.ctx.Err() == nil {
			s.cond.Wait()
		}
		if s.ctx.Err() != nil {
			// Fast shutdown: this worker flushes whatever is still queued
			// (the first worker in grabs everything; the rest see an empty
			// heap and exit).
			flush := s.pending
			s.pending = nil
			for _, sj := range flush {
				if rec, ok := s.jobs[sj.seq]; ok {
					rec.status = Cancelled
					rec.cancel()
					s.freeKeyLocked(rec)
					s.retireLocked(sj.seq)
				}
			}
			s.mu.Unlock()
			for _, sj := range flush {
				s.notify(Update{Index: sj.seq, Name: sj.job.Name, Status: Cancelled})
				s.results <- Result{ID: sj.seq, Name: sj.job.Name, Status: Cancelled}
			}
			return
		}
		if len(s.pending) == 0 { // closed and drained
			s.mu.Unlock()
			return
		}
		sj := heap.Pop(&s.pending).(*streamJob)
		s.mu.Unlock()
		s.runOne(sj, deadline)
	}
}

// runOne executes one popped job and delivers its terminal result. The job
// runs under its own context (derived from the stream's at Submit time), so
// Cancel(id) stops exactly this submission: before dispatch it short-cuts
// executeJob's entry check, mid-run it unwinds the runner between steps.
func (s *Stream) runOne(sj *streamJob, deadline time.Time) {
	s.mu.Lock()
	rec := s.jobs[sj.seq]
	s.mu.Unlock()
	// Release the per-job context's resources once the job is terminal; a
	// long-lived service submits indefinitely and each WithCancel context
	// otherwise stays parented to the stream context until shutdown.
	defer rec.cancel()
	var emit phaseEmitter
	if s.opts.phaseNotify != nil {
		emit = func(phase string, attempt int, start, end time.Time) {
			s.opts.phaseNotify(PhaseEvent{Index: sj.seq, Name: sj.job.Name,
				Phase: phase, Attempt: attempt, Start: start, End: end})
		}
		// The queue phase closed the moment the worker popped this job off
		// the heap (runOne is entered immediately after).
		emit("queue", 0, sj.at, time.Now())
	}
	executeJob(rec.ctx, &s.opts, s.budget, sj.job, deadline,
		func(st Status, attempt int, rep *runner.Report, err error) {
			s.mu.Lock()
			rec.status = st
			rec.attempt = attempt
			rec.err = err
			if isTerminal(st) {
				// Release the checkpoint key before delivery, so a consumer
				// reacting to the result can immediately re-submit the job.
				s.freeKeyLocked(rec)
				s.retireLocked(sj.seq)
			}
			s.mu.Unlock()
			s.notify(Update{Index: sj.seq, Name: sj.job.Name, Status: st,
				Attempt: attempt, Err: err, Report: rep})
			if isTerminal(st) {
				s.results <- Result{ID: sj.seq, Name: sj.job.Name, Status: st,
					Attempt: attempt, Report: rep, Err: err}
			}
		}, emit)
}

// notify serialises the WithNotify callback across workers, matching the
// batch layer's contract (the callback needs no locking of its own).
func (s *Stream) notify(u Update) {
	fn := s.opts.notify
	if fn == nil {
		return
	}
	s.notifyMu.Lock()
	fn(u)
	s.notifyMu.Unlock()
}
