package serve

import (
	"context"
	"encoding/json"
	"sync"
	"time"
)

// hub is the stream fan-out shared by runs and campaigns: a subscriber
// set, a best-effort send and a close-all. Its mutex is also the owner's
// lock (run and campaignRun embed hub and guard their state with mu), so
// a terminal check and a subscription are one atomic step, and events
// leave in the order their state changes were made.
type hub struct {
	mu   sync.Mutex
	subs map[chan []byte]struct{}
}

// addLocked registers a new stream channel. Its buffer absorbs a burst
// of events between a slow client's reads; past it, samples drop. mu
// must be held.
func (h *hub) addLocked() chan []byte {
	if h.subs == nil {
		h.subs = make(map[chan []byte]struct{})
	}
	ch := make(chan []byte, 64)
	h.subs[ch] = struct{}{}
	return ch
}

// unsubscribe removes a channel registered with addLocked. The caller must
// keep draining ch until it is closed or unsubscribe returns, whichever
// comes first (sends never block, so a buffered leftover is the worst
// case).
func (h *hub) unsubscribe(ch chan []byte) {
	h.mu.Lock()
	if _, ok := h.subs[ch]; ok {
		delete(h.subs, ch)
		close(ch)
	}
	h.mu.Unlock()
}

// sendLocked fans blob out to every subscriber, best-effort: a slow
// subscriber drops the sample, never blocks the sender. mu must be held.
func (h *hub) sendLocked(blob []byte) {
	for ch := range h.subs {
		select {
		case ch <- blob:
		default:
		}
	}
}

// closeLocked closes every subscriber channel, so stream readers move on
// to the owner's terminal read. mu must be held.
func (h *hub) closeLocked() {
	for ch := range h.subs {
		close(ch)
	}
	h.subs = nil
}

// run is one tracked simulation: the public RunInfo, the cancellation
// plumbing, the on-demand checkpoint trigger, and the stream hub (whose
// mutex guards the rest).
type run struct {
	hub

	info      RunInfo
	cancel    context.CancelFunc // set while running
	cancelled bool               // client requested cancellation

	// started/startRound anchor the live Progress estimate: the wall-clock
	// instant and completed round at which the run last entered a worker
	// slot (zero while not running).
	started    time.Time
	startRound int64

	// trigger carries on-demand checkpoint requests into checkpoint.Run
	// (capacity 1: requests arriving while one is pending coalesce).
	trigger chan struct{}
}

func newRun(id string, spec Spec) *run {
	return &run{
		info:    RunInfo{ID: id, Spec: spec, Status: StatusQueued},
		trigger: make(chan struct{}, 1),
	}
}

// Info returns a copy of the public state.
func (r *run) Info() RunInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.info
}

// setRunning transitions to running and installs the cancel hook. It
// reports false when the run was cancelled while queued (the worker must
// skip it).
func (r *run) setRunning(cancel context.CancelFunc) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cancelled {
		return false
	}
	r.info.Status = StatusRunning
	r.cancel = cancel
	r.started = time.Now()
	r.startRound = r.info.Round
	return true
}

// requestCancel marks the run cancelled and fires the in-flight context if
// any. It reports whether the run was still cancellable (not terminal).
func (r *run) requestCancel() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.info.Status.Terminal() {
		return false
	}
	r.cancelled = true
	if r.cancel != nil {
		r.cancel()
	}
	return true
}

// wasCancelled reports whether a client cancellation is pending.
func (r *run) wasCancelled() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cancelled
}

// finish applies the terminal (or re-queued) state and closes every
// subscriber channel so stream handlers move on to the terminal read. The
// cancel hook is dropped; a re-queued run gets a fresh one when it next
// starts.
func (r *run) finish(mutate func(*RunInfo)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	mutate(&r.info)
	r.cancel = nil
	// Progress is a running-state artifact; terminal and re-queued states
	// (and the persisted manifest) must not carry a stale estimate.
	r.info.Progress = nil
	r.started = time.Time{}
	r.closeLocked()
}

// subscribe registers a stream channel, or returns nil when the run is
// already terminal (the handler then renders the terminal state directly).
func (r *run) subscribe() chan []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.info.Status.Terminal() {
		return nil
	}
	return r.addLocked()
}

// publish marshals ev once and fans it out to every subscriber,
// best-effort, and refreshes the run's last known round.
func (r *run) publish(ev Event) {
	blob, err := json.Marshal(ev)
	if err != nil {
		return // Event has no unmarshalable fields; unreachable.
	}
	r.mu.Lock()
	r.info.Round = ev.Round
	if !r.started.IsZero() {
		p := &Progress{
			Round:     ev.Round,
			MaxLoad:   ev.MaxLoad,
			EmptyFrac: ev.EmptyFrac,
			WindowMax: ev.WindowMax,
		}
		if done := ev.Round - r.startRound; done > 0 {
			if elapsed := time.Since(r.started).Seconds(); elapsed > 0 {
				p.RoundsPerSec = float64(done) / elapsed
				if rem := r.info.Spec.Rounds - ev.Round; rem > 0 {
					p.ETASeconds = float64(rem) / p.RoundsPerSec
				}
			}
		}
		r.info.Progress = p
	}
	r.sendLocked(blob)
	r.mu.Unlock()
}

// requestCheckpoint forwards an on-demand snapshot request to the run loop
// if the run is currently running an rbb process. It reports whether the
// request was accepted (false: not running, or not checkpointable).
func (r *run) requestCheckpoint() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.info.Status != StatusRunning || r.info.Spec.Process != ProcessRBB {
		return false
	}
	select {
	case r.trigger <- struct{}{}:
	default: // one already pending; coalesce
	}
	return true
}
