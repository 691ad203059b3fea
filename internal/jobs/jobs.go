// Package jobs is the job lifecycle shared by igpartd's serving tiers:
// the partition engine (internal/service) and the cluster coordinator
// (internal/cluster). IG-Match is a pure function of (netlist, options),
// so both tiers are bookkeeping around a solve, and this is that
// bookkeeping: the states, the sentinel errors, a Job core (ID,
// cancel-cause context, done channel, timestamps) and a Table (ID
// allocation, registry, pruning, intake close, drain). Each tier keeps
// only its own work: the engine its queue, cache, retry and solve; the
// coordinator its ring, failover, journal, lease and backend long-poll.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"igpart/internal/obs"
)

// State is a job's lifecycle phase.
type State string

// Queued and Running are transient; the other three are terminal and
// frozen once reached.
const (
	Queued    State = "queued"
	Running   State = "running"
	Done      State = "done"
	Failed    State = "failed"
	Cancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Cancelled }

// Sentinel errors of both tiers; cmd/igpartd maps each to one status.
var (
	// ErrShutdown rejects submissions once intake closed; it is also the
	// cancel cause of jobs a timed-out engine drain abandons.
	ErrShutdown = errors.New("jobs: shutting down")
	// ErrCancelled is the cancel cause of a user-requested cancellation.
	ErrCancelled = errors.New("jobs: job cancelled")
	// ErrUnknownBase rejects a delta naming a job not tracked (expired,
	// pruned, or never existed).
	ErrUnknownBase = errors.New("jobs: unknown base job")
	// ErrNotWarmStartable rejects a delta whose base job cannot seed a
	// warm start yet or at all: not done, failed, or without a net
	// ordering.
	ErrNotWarmStartable = errors.New("jobs: base job not warm-startable")
)

// Job is the lifecycle core a tier's job type embeds.
type Job struct {
	// Mutex guards State and the timestamps, and the outcome fields the
	// embedding tier keeps beside them. State changes only through Start
	// and Table.Finish.
	sync.Mutex
	State                        State
	Submitted, Started, Finished time.Time

	id     string
	ctx    context.Context
	cancel context.CancelCauseFunc
	stop   context.CancelFunc // releases the deadline timer
	done   chan struct{}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Context is what the job's work runs under. It ends on cancellation,
// deadline, table abort, or finish; context.Cause tells which.
func (j *Job) Context() context.Context { return j.ctx }

// Cancel cancels the job's context with cause ErrCancelled; the tier
// finishes the job once its work notices.
func (j *Job) Cancel() { j.cancel(ErrCancelled) }

// Start moves a queued job to running unless its context already ended,
// and reports whether the job is running.
func (j *Job) Start() bool {
	j.Lock()
	defer j.Unlock()
	if j.State == Queued && j.ctx.Err() == nil {
		j.State, j.Started = Running, time.Now()
	}
	return j.State == Running
}

func (j *Job) core() *Job { return j }

func (j *Job) release(cause error) {
	j.cancel(cause)
	j.stop()
}

// Handle is a tier's job type: anything embedding *Job.
type Handle interface{ core() *Job }

// Config sizes a Table.
type Config struct {
	// Namespace prefixes the outcome counters <Namespace>.jobs_completed,
	// .jobs_failed and .jobs_cancelled in Metrics.
	Namespace   string
	Metrics     *obs.Registry
	IDPrefix    string // of the IDs Add assigns, e.g. "job-"
	MaxFinished int    // terminal jobs kept queryable, oldest forgotten first
}

// Table is a tier's job registry. Every job it creates runs under a
// context derived from the table's root, so one Abort reaches them all.
type Table[T Handle] struct {
	cfg   Config
	root  context.Context
	abort context.CancelCauseFunc

	mu       sync.Mutex
	closed   bool
	nextID   int64
	jobs     map[string]T
	finished []string // terminal job IDs, oldest first, for pruning
}

// NewTable returns an empty, open table.
func NewTable[T Handle](cfg Config) *Table[T] {
	root, abort := context.WithCancelCause(context.Background())
	return &Table[T]{cfg: cfg, root: root, abort: abort, jobs: make(map[string]T)}
}

// NewJob returns a job core in state st, submitted now, expiring after
// timeout when it is positive. id may be empty for Add to assign.
func (t *Table[T]) NewJob(id string, st State, timeout time.Duration) *Job {
	j := &Job{id: id, State: st, Submitted: time.Now(), done: make(chan struct{}), stop: func() {}}
	j.ctx, j.cancel = context.WithCancelCause(t.root)
	if timeout > 0 {
		j.ctx, j.stop = context.WithTimeout(j.ctx, timeout)
	}
	return j
}

// Context is the table's root context; Abort ends it.
func (t *Table[T]) Context() context.Context { return t.root }

// NextID allocates the next ID under prefix, or fails with ErrShutdown
// once intake closed.
func (t *Table[T]) NextID(prefix string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return "", ErrShutdown
	}
	t.nextID++
	return fmt.Sprintf("%s%d", prefix, t.nextID), nil
}

// Add assigns j the next ID and registers it if admit (when not nil)
// accepts, all under the table lock, so nothing is admitted once Close
// ran; admit must therefore not block (the engine's is a non-blocking
// queue send). A rejected job's context is released with the rejecting
// error.
func (t *Table[T]) Add(j T, admit func() error) error {
	c := j.core()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		c.release(ErrShutdown)
		return ErrShutdown
	}
	t.nextID++
	c.id = fmt.Sprintf("%s%d", t.cfg.IDPrefix, t.nextID)
	if admit != nil {
		if err := admit(); err != nil {
			c.release(err)
			return err
		}
	}
	t.insertLocked(j)
	return nil
}

// Insert registers a job whose ID is already set, even after Close:
// one NextID allocated, or one replayed from a journal.
func (t *Table[T]) Insert(j T) {
	t.mu.Lock()
	t.insertLocked(j)
	t.mu.Unlock()
}

func (t *Table[T]) insertLocked(j T) {
	t.jobs[j.core().id] = j
	t.pruneLocked()
}

// Advance raises the ID counter to n, so IDs replayed from a journal
// never collide with new ones.
func (t *Table[T]) Advance(n int64) {
	t.mu.Lock()
	t.nextID = max(t.nextID, n)
	t.mu.Unlock()
}

// Last returns the highest ID number allocated so far.
func (t *Table[T]) Last() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nextID
}

// Get returns the job with the given ID.
func (t *Table[T]) Get(id string) (T, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	return j, ok
}

// Finish moves j to the terminal state st and reports whether this call
// made the transition; later calls are no-ops, so a completion racing a
// cancellation resolves to whichever comes first. set (if not nil)
// records the outcome under the job lock. settle (if not nil) then runs
// outside it, before Done closes: readers see the outcome at once,
// while a waiter woken by Done also finds what settle recorded (the
// coordinator journals the completion there). The winner counts the
// outcome, queues the job for pruning, releases its context and closes
// Done.
func (t *Table[T]) Finish(j T, st State, set, settle func()) bool {
	c := j.core()
	c.Lock()
	if c.State.Terminal() {
		c.Unlock()
		return false
	}
	c.State, c.Finished = st, time.Now()
	if set != nil {
		set()
	}
	c.Unlock()
	if settle != nil {
		settle()
	}
	counter := ".jobs_failed"
	switch st {
	case Done:
		counter = ".jobs_completed"
	case Cancelled:
		counter = ".jobs_cancelled"
	}
	t.cfg.Metrics.Counter(t.cfg.Namespace + counter).Add(1)
	t.mu.Lock()
	t.finished = append(t.finished, c.id)
	t.pruneLocked()
	t.mu.Unlock()
	c.release(nil)
	close(c.done)
	return true
}

// pruneLocked forgets the oldest terminal jobs beyond MaxFinished so
// the registry cannot grow without bound.
func (t *Table[T]) pruneLocked() {
	for len(t.finished) > t.cfg.MaxFinished {
		delete(t.jobs, t.finished[0])
		t.finished = t.finished[1:]
	}
}

// Close stops intake: NextID and Add fail with ErrShutdown from now on.
// onClose (if not nil) runs under the table lock on the first call
// only, so it cannot race an Add; the engine closes its queue there.
func (t *Table[T]) Close(onClose func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.closed && onClose != nil {
		onClose()
	}
	t.closed = true
}

// Closed reports whether intake has closed.
func (t *Table[T]) Closed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// Abort cancels every job's context with cause.
func (t *Table[T]) Abort(cause error) { t.abort(cause) }

// Drain waits for wg, the goroutines working the table's jobs. If ctx
// fires first it aborts every job with cause, waits for the goroutines
// to notice (cancellation is cooperative, so they exit promptly), and
// returns ctx's error.
func (t *Table[T]) Drain(ctx context.Context, wg *sync.WaitGroup, cause error) error {
	drained := make(chan struct{})
	go func() {
		wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		t.Abort(cause)
		<-drained
		return ctx.Err()
	}
}

// Sleep waits for d or until ctx ends, returning ctx's error then.
func Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// JitterSeed is a job's backoff jitter seed: FNV-1a over its ID, so
// distinct jobs get distinct but reproducible jitter streams.
func JitterSeed(id string) uint64 {
	seed := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		seed = (seed ^ uint64(id[i])) * 1099511628211
	}
	return seed
}
