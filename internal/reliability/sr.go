package reliability

import (
	"fmt"
	"time"

	"sdrrdma/internal/core"
	"sdrrdma/internal/nicsim"
	"sdrrdma/internal/telemetry"
)

// chunkState tracks one chunk on the SR sender.
type chunkState struct {
	acked bool
	// repaired marks a chunk already resent once on ack-hole evidence
	// (adaptive sender); further repairs fall back to the RTO sweep.
	repaired bool
	// retries counts RTO retransmissions taken, driving the capped
	// exponential backoff (retryRTO).
	retries  uint8
	lastSent time.Time
}

// srSender is the Selective Repeat chunk tracking of one send stream,
// shared by WriteSR and the adaptive engine's SR segments: selective
// ACKs mark chunks, and unacked chunks resend on their repair policy
// or on the backoff RTO sweep.
type srSender struct {
	sendStream
	chunks []chunkState
	acked  int
	// key seeds the RTO jitter: the stream's opID.
	key uint64
}

// applyAck marks the chunks a cumulative+selective ACK covers.
func (t *srSender) applyAck(m ctrlMsg) {
	n := len(t.chunks)
	for i := 0; i < int(m.cumAck) && i < n; i++ {
		if !t.chunks[i].acked {
			t.chunks[i].acked = true
			t.acked++
		}
	}
	// Selective portion: bitmap over all chunks (§4.1.1 sends it from
	// the cumulative frontier; we snapshot from zero, which carries the
	// same information).
	for i := 0; i < n && i/8 < len(m.sack); i++ {
		if m.sack[i/8]&(1<<uint(i%8)) != 0 && !t.chunks[i].acked {
			t.chunks[i].acked = true
			t.acked++
		}
	}
}

// frontier returns the highest acked chunk (-1 when none is).
func (t *srSender) frontier() int {
	for i := len(t.chunks) - 1; i >= 0; i-- {
		if t.chunks[i].acked {
			return i
		}
	}
	return -1
}

// resend re-injects chunk c and restarts its timer.
func (t *srSender) resend(e *Endpoint, c int, cause int64) error {
	t.chunks[c].lastSent = e.clock().Now()
	return e.resend(t.sendStream, c, cause)
}

// rtoSweep resends every unacked chunk whose retransmission timeout
// expired by now. The per-chunk deadline backs off exponentially per
// attempt with a deterministic jitter (retryRTO), so a dead stretch of
// network does not grind out fixed-cadence retransmission storms.
func (t *srSender) rtoSweep(e *Endpoint, now time.Time, rto time.Duration) error {
	for i := range t.chunks {
		c := &t.chunks[i]
		if c.acked || now.Sub(c.lastSent) < retryRTO(rto, c.retries, t.key<<16+uint64(i)) {
			continue
		}
		if c.retries < maxBackoffShift {
			c.retries++
		}
		if err := t.resend(e, i, telemetry.CauseRTO); err != nil {
			return err
		}
	}
	return nil
}

// startSR opens one SR stream over data and injects it whole, idx
// naming the segment (0 for a whole message) in events and errors.
// The stream's opID claims its control channel before the first packet
// leaves, so no ACK can arrive unrouted; the caller unregisters it.
func (e *Endpoint) startSR(what string, idx int, data []byte, chunks []chunkState) (srSender, chan ctrlMsg, error) {
	st, err := e.QP.SendStreamStartTimeout(len(data), 0, e.Cfg.GlobalTimeout)
	if err != nil {
		return srSender{}, nil, startErr(fmt.Sprintf("%s %d stream", what, idx), err)
	}
	t := srSender{sendStream: sendStream{st: st, data: data, idx: int64(idx)}, chunks: chunks, key: st.Seq()}
	acks := e.CP.register(t.key)
	if err := st.Continue(0, data); err != nil {
		e.CP.unregister(t.key)
		return srSender{}, nil, err
	}
	now := e.clock().Now()
	for i := range chunks {
		chunks[i].lastSent = now
	}
	return t, acks, nil
}

// srAck builds the cumulative+selective ACK of h's chunk bitmap,
// snapshotting into sack's storage.
func srAck(h *core.RecvHandle, sack []byte) ctrlMsg {
	bm := h.Bitmap()
	return ctrlMsg{
		typ:    msgSRAck,
		opID:   h.Seq(),
		cumAck: uint32(bm.CumulativeCount()),
		sack:   bm.Snapshot(sack),
	}
}

// WriteSR reliably writes data using Selective Repeat (§4.1.1):
// streaming SDR send for the initial injection, per-chunk RTO
// retransmission and cumulative+selective ACKs from the receiver.
// ProtoSRNACK adds fast retransmission of holes behind the ACK
// frontier after ~1 RTT.
func (e *Endpoint) WriteSR(data []byte) error { return e.writeSR(data, false) }

func (e *Endpoint) writeSR(data []byte, nack bool) error {
	e.opMu.Lock()
	defer e.opMu.Unlock()
	cfg := e.Cfg
	clk := e.clock()

	chunkBytes := e.QP.Config().ChunkBytes
	nchunks := (len(data) + chunkBytes - 1) / chunkBytes
	t, acks, err := e.startSR("SR message", 0, data, scratchSlice(&e.scr.srChunks, nchunks))
	if err != nil {
		return err
	}
	defer e.CP.unregister(t.key)
	now := clk.Now()
	applyAck := func(m ctrlMsg) error {
		if m.typ == msgSRAck {
			t.applyAck(m)
		}
		return nil
	}

	rto := cfg.RTO()
	nackDelay := cfg.RTT // NACK-mode hole resend delay (§5.1.1: 1 RTT)
	deadline := now.Add(cfg.GlobalTimeout)

	for t.acked < nchunks {
		// Snapshot BEFORE draining: an ACK that lands after the drain
		// wakes the wait below immediately (no lost wakeup).
		epoch := clk.Epoch()
		if err := e.abortErr(); err != nil {
			return fmt.Errorf("SR write %d B: %w", len(data), err)
		}
		progressed, _ := drain(acks, applyAck) // applyAck never fails
		if t.acked >= nchunks {
			break
		}
		now = clk.Now()
		if now.After(deadline) {
			return fmt.Errorf("%w: SR write %d B, %d/%d chunks acked",
				ErrGlobalTimeout, len(data), t.acked, nchunks)
		}
		if nack && progressed {
			// Fast retransmit: a hole is an unacked chunk below the
			// highest acked chunk — the receiver has seen past it, so
			// it was dropped, not merely in flight.
			frontier := t.frontier()
			for i := 0; i < frontier; i++ {
				if !t.chunks[i].acked && now.Sub(t.chunks[i].lastSent) >= nackDelay {
					if err := t.resend(e, i, telemetry.CauseHole); err != nil {
						return err
					}
				}
			}
		}
		// Per-chunk RTO retransmission (checked on every wake).
		if err := t.rtoSweep(e, now, rto); err != nil {
			return err
		}
		e.noteInflight(nchunks - t.acked)
		clk.WaitNotify(epoch, cfg.PollInterval)
	}
	return t.st.End()
}

// ReceiveSR receives one reliable SR Write into mr[offset:offset+size].
// It polls the SDR chunk bitmap (§3.1.1) and reports progress through
// cumulative+selective ACKs until the message completes, then finishes
// (final ACK, background linger and retire; see retire.go).
func (e *Endpoint) ReceiveSR(mr *nicsim.MR, offset uint64, size int) error {
	e.opMu.Lock()
	defer e.opMu.Unlock()
	cfg := e.Cfg
	clk := e.clock()

	h, err := e.QP.RecvPost(mr, offset, size)
	if err != nil {
		return fmt.Errorf("reliability: SR recv post: %w", err)
	}

	// goodput is fed from the cumulative frontier's byte watermark, so
	// the series integrates to exactly the message size.
	lastCumBytes := int64(0)
	chunkBytes := int64(e.QP.Config().ChunkBytes)
	feedGoodput := func(cum uint32) {
		b := min(int64(cum)*chunkBytes, int64(size))
		e.noteGoodput(b - lastCumBytes)
		lastCumBytes = b
	}
	// The selective-ACK bitmap buffer is reused across ticks: CP.send
	// serializes the payload before returning, so the snapshot can be
	// overwritten by the next poll without racing the wire.
	var sackBuf []byte

	start := clk.Now()
	deadline := start.Add(cfg.GlobalTimeout)
	nextAck := start.Add(cfg.AckInterval)
	for {
		// Snapshot BEFORE the completion check: the delivery that
		// completes the message notifies the clock, so the wait below
		// cannot sleep past it.
		epoch := clk.Epoch()
		if h.Done() {
			break
		}
		now := clk.Now()
		if err := e.stopErr(now, deadline); err != nil {
			abandon(h)
			return fmt.Errorf("SR receive %d B, %d/%d chunks: %w",
				size, h.Bitmap().Count(), h.NumChunks(), err)
		}
		if !now.Before(nextAck) {
			ack := srAck(h, sackBuf)
			sackBuf = ack.sack
			feedGoodput(ack.cumAck)
			e.CP.send(ack)
			nextAck = now.Add(cfg.AckInterval)
		}
		clk.WaitNotify(epoch, nextAck.Sub(now))
	}
	final := srAck(h, nil)
	feedGoodput(final.cumAck)
	e.finish(final, h)
	return nil
}
