package main

import (
	"fmt"
	"net/http"
	"sync"
	"time"
)

// maxWait caps a long-poll on a server without a write timeout: long
// enough that a waiting client makes few round trips, short enough
// that proxies with idle timeouts do not cut the request.
const maxWait = 30 * time.Second

// longPoll carries the ?wait= semantics of GET /v1/jobs/{id}, shared by
// the single-node and coordinator façades: the request blocks until the
// job is terminal, the wait elapses, the client goes away, or the
// server starts draining — whichever comes first — and then answers
// with the job's current snapshot as usual.
type longPoll struct {
	max      time.Duration
	draining chan struct{}
	once     sync.Once
}

// newLongPoll sizes the wait cap below the server's write timeout (0 =
// none), so a long-poll always answers before the server would cut its
// response off.
func newLongPoll(writeTimeout time.Duration) *longPoll {
	lp := &longPoll{max: maxWait, draining: make(chan struct{})}
	if writeTimeout > 0 && writeTimeout/2 < lp.max {
		lp.max = writeTimeout / 2
	}
	return lp
}

// drain ends every open wait and makes later ones return at once.
// http.Server.Shutdown does not cancel in-flight request contexts, so
// the daemon registers this with RegisterOnShutdown; without it a
// SIGTERM would wait out every open long-poll. Safe to call repeatedly.
func (lp *longPoll) drain() { lp.once.Do(func() { close(lp.draining) }) }

// wait applies the request's ?wait= against a job's done channel. An
// unparseable or negative duration answers 400 and returns false; a
// duration above the cap is clamped; no parameter returns at once.
func (lp *longPoll) wait(w http.ResponseWriter, r *http.Request, done <-chan struct{}) bool {
	raw := r.URL.Query().Get("wait")
	if raw == "" {
		return true
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d < 0 {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad wait %q: want a non-negative duration such as 5s", raw))
		return false
	}
	if d > lp.max {
		d = lp.max
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
	case <-t.C:
	case <-r.Context().Done():
	case <-lp.draining:
	}
	return true
}
