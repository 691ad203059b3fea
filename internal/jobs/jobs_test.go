package jobs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"igpart/internal/obs"
)

// testJob is a minimal tier job: the core plus one outcome field.
type testJob struct {
	*Job
	out string
}

func newTable(maxFinished int) (*Table[*testJob], *obs.Registry) {
	reg := new(obs.Registry)
	return NewTable[*testJob](Config{Namespace: "test", IDPrefix: "t-", MaxFinished: maxFinished, Metrics: reg}), reg
}

func (tb *Table[T]) mustAdd(t *testing.T, j T) T {
	t.Helper()
	if err := tb.Add(j, nil); err != nil {
		t.Fatalf("Add: %v", err)
	}
	return j
}

func TestStateTerminal(t *testing.T) {
	for st, want := range map[State]bool{Queued: false, Running: false, Done: true, Failed: true, Cancelled: true} {
		if st.Terminal() != want {
			t.Errorf("%s.Terminal() = %v, want %v", st, !want, want)
		}
	}
}

func TestAddAssignsIDsAndRegisters(t *testing.T) {
	tb, _ := newTable(10)
	a := tb.mustAdd(t, &testJob{Job: tb.NewJob("", Queued, 0)})
	b := tb.mustAdd(t, &testJob{Job: tb.NewJob("", Queued, 0)})
	if a.ID() != "t-1" || b.ID() != "t-2" {
		t.Fatalf("IDs = %s, %s; want t-1, t-2", a.ID(), b.ID())
	}
	if got, ok := tb.Get("t-2"); !ok || got != b {
		t.Fatal("Get(t-2) does not return the registered job")
	}
	if id, err := tb.NextID("batch-"); err != nil || id != "batch-3" {
		t.Fatalf("NextID = %q, %v; want batch-3 from the shared counter", id, err)
	}
	if a.Submitted.IsZero() || a.State != Queued {
		t.Fatalf("new job: state %s, submitted %v", a.State, a.Submitted)
	}
}

// A job admit rejects is not registered, still consumes its ID, and has
// its context released with the rejecting error as cause.
func TestAddRejectionReleasesContext(t *testing.T) {
	tb, _ := newTable(10)
	errFull := errors.New("full")
	j := &testJob{Job: tb.NewJob("", Queued, time.Hour)}
	if err := tb.Add(j, func() error { return errFull }); err != errFull {
		t.Fatalf("Add = %v, want the admit error", err)
	}
	if _, ok := tb.Get(j.ID()); ok {
		t.Fatal("rejected job is registered")
	}
	if cause := context.Cause(j.Context()); cause != errFull {
		t.Fatalf("rejected job's cause = %v, want %v", cause, errFull)
	}
	if tb.Last() != 1 {
		t.Fatalf("Last = %d, want 1: a rejected job consumes its ID", tb.Last())
	}
}

func TestCloseStopsIntake(t *testing.T) {
	tb, _ := newTable(10)
	closes := 0
	tb.Close(func() { closes++ })
	tb.Close(func() { closes++ })
	if closes != 1 || !tb.Closed() {
		t.Fatalf("onClose ran %d times, Closed = %v; want once, true", closes, tb.Closed())
	}
	if _, err := tb.NextID("t-"); err != ErrShutdown {
		t.Fatalf("NextID after Close = %v, want ErrShutdown", err)
	}
	j := &testJob{Job: tb.NewJob("", Queued, 0)}
	if err := tb.Add(j, nil); err != ErrShutdown {
		t.Fatalf("Add after Close = %v, want ErrShutdown", err)
	}
	if context.Cause(j.Context()) != ErrShutdown {
		t.Fatal("job rejected at Close keeps a live context")
	}
	// Replay registers jobs whose IDs were handed out before.
	tb.Insert(&testJob{Job: tb.NewJob("t-7", Queued, 0)})
	if _, ok := tb.Get("t-7"); !ok {
		t.Fatal("Insert after Close did not register")
	}
}

func TestFinishOnce(t *testing.T) {
	tb, reg := newTable(10)
	j := tb.mustAdd(t, &testJob{Job: tb.NewJob("", Queued, 0)})
	if !tb.Finish(j, Done, func() { j.out = "first" }, func() {
		// settle: the outcome is already visible, Done not yet closed.
		j.Lock()
		visible := j.State == Done && j.out == "first"
		j.Unlock()
		select {
		case <-j.Done():
			t.Error("Done closed before settle ran")
		default:
		}
		if !visible {
			t.Error("settle ran before the outcome was visible")
		}
	}) {
		t.Fatal("first Finish lost")
	}
	if tb.Finish(j, Cancelled, func() { j.out = "second" }, func() { t.Error("losing Finish settled") }) {
		t.Fatal("second Finish won")
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("Done not closed")
	}
	if j.State != Done || j.out != "first" || j.Finished.IsZero() {
		t.Fatalf("after finish: state %s, out %q, finished %v", j.State, j.out, j.Finished)
	}
	if j.Context().Err() == nil {
		t.Fatal("finished job's context still live")
	}
	snap := reg.Snapshot().Counters
	if snap["test.jobs_completed"] != 1 || snap["test.jobs_cancelled"] != 0 {
		t.Fatalf("counters = %v, want one completion", snap)
	}
	tb.Finish(tb.mustAdd(t, &testJob{Job: tb.NewJob("", Queued, 0)}), Failed, nil, nil)
	tb.Finish(tb.mustAdd(t, &testJob{Job: tb.NewJob("", Queued, 0)}), Cancelled, nil, nil)
	snap = reg.Snapshot().Counters
	if snap["test.jobs_failed"] != 1 || snap["test.jobs_cancelled"] != 1 {
		t.Fatalf("counters = %v, want one failure and one cancellation", snap)
	}
}

// Terminal jobs beyond MaxFinished are forgotten oldest first; live
// jobs never are.
func TestFinishPrunesBeyondMaxFinished(t *testing.T) {
	tb, _ := newTable(2)
	live := tb.mustAdd(t, &testJob{Job: tb.NewJob("", Queued, 0)})
	var done []*testJob
	for i := 0; i < 3; i++ {
		j := tb.mustAdd(t, &testJob{Job: tb.NewJob("", Queued, 0)})
		tb.Finish(j, Done, nil, nil)
		done = append(done, j)
	}
	if _, ok := tb.Get(done[0].ID()); ok {
		t.Fatal("oldest finished job survived pruning")
	}
	for _, j := range append(done[1:], live) {
		if _, ok := tb.Get(j.ID()); !ok {
			t.Fatalf("%s pruned", j.ID())
		}
	}
}

func TestStartAndCancel(t *testing.T) {
	tb, _ := newTable(10)
	j := tb.mustAdd(t, &testJob{Job: tb.NewJob("", Queued, 0)})
	if !j.Start() || j.State != Running || j.Started.IsZero() {
		t.Fatalf("Start on a queued job: state %s, started %v", j.State, j.Started)
	}
	if !j.Start() {
		t.Fatal("Start on a running job reports not running")
	}
	c := tb.mustAdd(t, &testJob{Job: tb.NewJob("", Queued, 0)})
	c.Cancel()
	if c.Start() {
		t.Fatal("a job cancelled while queued started")
	}
	if cause := context.Cause(c.Context()); cause != ErrCancelled {
		t.Fatalf("cause = %v, want ErrCancelled", cause)
	}
}

func TestNewJobDeadline(t *testing.T) {
	tb, _ := newTable(10)
	j := tb.NewJob("x", Queued, time.Millisecond)
	<-j.Context().Done()
	if !errors.Is(context.Cause(j.Context()), context.DeadlineExceeded) {
		t.Fatalf("cause = %v, want DeadlineExceeded", context.Cause(j.Context()))
	}
}

func TestDrainWaitsForWorkers(t *testing.T) {
	tb, _ := newTable(10)
	j := tb.mustAdd(t, &testJob{Job: tb.NewJob("", Running, 0)})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		tb.Finish(j, Done, nil, nil)
	}()
	if err := tb.Drain(context.Background(), &wg, ErrShutdown); err != nil {
		t.Fatalf("Drain = %v, want nil", err)
	}
	if j.State != Done {
		t.Fatalf("drained job %s, want done", j.State)
	}
}

// A drain whose context fires first aborts every job with the given
// cause and still waits for the workers to notice.
func TestDrainAbortsOnDeadline(t *testing.T) {
	tb, _ := newTable(10)
	cause := errors.New("aborted")
	var wg sync.WaitGroup
	var jobs []*testJob
	for i := 0; i < 4; i++ {
		j := tb.mustAdd(t, &testJob{Job: tb.NewJob("", Running, time.Hour)})
		jobs = append(jobs, j)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-j.Context().Done()
			tb.Finish(j, Cancelled, func() { j.out = context.Cause(j.Context()).Error() }, nil)
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := tb.Drain(ctx, &wg, cause); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want DeadlineExceeded", err)
	}
	for _, j := range jobs {
		if j.State != Cancelled || j.out != cause.Error() {
			t.Fatalf("%s: state %s, cause %q; want cancelled by %v", j.ID(), j.State, j.out, cause)
		}
	}
	if context.Cause(tb.Context()) != cause {
		t.Fatal("root context not aborted with the drain's cause")
	}
}

// Completion racing cancellation on many jobs: exactly one transition
// per job, counted once, never a double close of Done.
func TestFinishRacesCancel(t *testing.T) {
	tb, reg := newTable(1000)
	const n = 200
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		j := tb.mustAdd(t, &testJob{Job: tb.NewJob("", Queued, 0)})
		wg.Add(2)
		go func() {
			defer wg.Done()
			if j.Start() {
				tb.Finish(j, Done, func() { j.out = "done" }, nil)
			}
		}()
		go func() {
			defer wg.Done()
			j.Cancel()
			tb.Finish(j, Cancelled, func() { j.out = "cancelled" }, nil)
		}()
	}
	wg.Wait()
	c := reg.Snapshot().Counters
	if got := c["test.jobs_completed"] + c["test.jobs_cancelled"]; got != n {
		t.Fatalf("%d outcomes counted for %d jobs", got, n)
	}
}

func TestAdvance(t *testing.T) {
	tb, _ := newTable(10)
	tb.Advance(41)
	tb.Advance(7)
	if tb.Last() != 41 {
		t.Fatalf("Last = %d, want 41", tb.Last())
	}
	if id, _ := tb.NextID("cjob-"); id != "cjob-42" {
		t.Fatalf("NextID after Advance = %s, want cjob-42", id)
	}
}

func TestJitterSeed(t *testing.T) {
	if JitterSeed("job-1") != JitterSeed("job-1") {
		t.Fatal("seed not deterministic")
	}
	if JitterSeed("job-1") == JitterSeed("job-2") {
		t.Fatal("distinct IDs share a seed")
	}
}

func TestSleep(t *testing.T) {
	if err := Sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("Sleep = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, time.Hour); err != context.Canceled {
		t.Fatalf("Sleep on a dead context = %v, want Canceled", err)
	}
}
