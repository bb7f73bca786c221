package reliability

import (
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/core"
)

// Receiver finish path: a completed receive sends its final control
// message once and returns at the completion instant; a clock timer
// keeps re-sending it every AckInterval until the Linger window
// elapses (so a lost final ACK cannot strand the sender), then arms
// the late re-ACK table and retires the slots. Running the linger in
// the background keeps it off the collective critical path: the
// caller can post its next receive, and with it the CTS its sender
// waits for, immediately. Session.Close joins the pending retires
// (flushRetires), so teardown or a pooled release never leaves armed
// timers or live slots behind.

// stopErr reports why a receive loop must give up at now: the
// endpoint was aborted, or the operation's global deadline passed.
func (e *Endpoint) stopErr(now, deadline time.Time) error {
	if err := e.abortErr(); err != nil {
		return err
	}
	if now.After(deadline) {
		return ErrGlobalTimeout
	}
	return nil
}

// abandon completes the posted handles of a receive that gives up on
// abort or timeout; nil handles (unposted parity) are skipped.
func abandon(handles ...*core.RecvHandle) {
	for _, h := range handles {
		if h != nil {
			h.Complete()
		}
	}
}

// pendingRetire is one receive whose linger is still running.
type pendingRetire struct {
	msg      ctrlMsg
	handles  []*core.RecvHandle
	deadline time.Time
	timer    clock.Timer
	done     bool
}

// finish completes a receive: final goes out now, and the handles'
// slots stay live (retransmissions keep landing as duplicates rather
// than late packets) until the linger elapses or the session closes.
func (e *Endpoint) finish(final ctrlMsg, handles ...*core.RecvHandle) {
	e.CP.send(final)
	clk := e.clock()
	r := &pendingRetire{msg: final, handles: handles, deadline: clk.Now().Add(e.Cfg.Linger)}
	e.retMu.Lock()
	e.retires = append(e.retires, r)
	// Arm under retMu: retireTick locks it before touching r, so the
	// timer field is published before the first tick can read it (on a
	// real clock the callback may fire arbitrarily soon).
	r.timer = clk.AfterFunc(e.Cfg.AckInterval, func() { e.retireTick(r) })
	e.retMu.Unlock()
}

// retireTick is the linger timer body: re-send the final control
// message while the window is open, finish the retire once it elapses.
// It runs on the clock's callback path and must not block.
func (e *Endpoint) retireTick(r *pendingRetire) {
	e.retMu.Lock()
	defer e.retMu.Unlock()
	if r.done {
		return
	}
	if !e.clock().Now().Before(r.deadline) {
		e.finishRetireLocked(r)
		return
	}
	e.CP.send(r.msg)
	r.timer.Reset(e.Cfg.AckInterval)
}

// finishRetireLocked (retMu held) retires one pending receive: arm the
// late re-ACK table, then retire every slot.
func (e *Endpoint) finishRetireLocked(r *pendingRetire) {
	r.done = true
	for i, p := range e.retires {
		if p == r {
			e.retires = append(e.retires[:i], e.retires[i+1:]...)
			break
		}
	}
	e.rememberRetired(r.msg, r.handles...)
	for _, h := range r.handles {
		h.Complete()
	}
}

// flushRetires completes every pending background retire immediately:
// timers stop, slots retire and the re-ACK table is armed without
// waiting out the remaining linger.
func (e *Endpoint) flushRetires() {
	e.retMu.Lock()
	for len(e.retires) > 0 {
		r := e.retires[len(e.retires)-1]
		if r.timer != nil {
			r.timer.Stop()
		}
		e.finishRetireLocked(r)
	}
	e.retMu.Unlock()
}
