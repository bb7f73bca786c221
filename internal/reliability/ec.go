package reliability

import (
	"fmt"

	"sdrrdma/internal/core"
	"sdrrdma/internal/ec"
	"sdrrdma/internal/nicsim"
	"sdrrdma/internal/telemetry"
)

// split cuts a message of total bytes into n parts of part bytes:
// the EC submessages of K chunks (§4.1.2; a short tail submessage is
// padded with virtual zero chunks so the (k, m) code applies
// uniformly) or the adaptive segments. The last part may be short; an
// empty message is one empty part.
type split struct{ part, total, n int }

func newSplit(total, part int) split {
	return split{part: part, total: total, n: max(1, (total+part-1)/part)}
}

// bytes returns part i's byte range [lo, hi) within the message.
func (s split) bytes(i int) (lo, hi int) {
	lo = i * s.part
	return lo, min(lo+s.part, s.total)
}

// ECScratchBytes returns the parity scratch size ReceiveEC requires
// for a message of msgBytes under this config and chunk size: one
// m-chunk parity submessage per data submessage.
func (c Config) ECScratchBytes(chunkBytes, msgBytes int) int {
	cfg := c.WithDefaults()
	return newSplit(msgBytes, cfg.K*chunkBytes).n * cfg.M * chunkBytes
}

// shard returns chunk j of a submessage whose real bytes are sub, as
// a k-chunk shard for the code: sub's own storage for a full chunk,
// the shared zero chunk past its end (a virtual zero chunk, never
// sent), and a zero-padded copy in tailScratch for a partial tail.
func (s *opScratch) shard(sub []byte, j, chunkBytes int) (shard []byte, tail bool) {
	lo := j * chunkBytes
	switch {
	case lo >= len(sub):
		return s.scratchZero(chunkBytes), false
	case lo+chunkBytes > len(sub):
		t := scratchN(&s.tailScratch, chunkBytes)
		clear(t[copy(t, sub[lo:]):])
		return t, true
	}
	return sub[lo : lo+chunkBytes], false
}

// encodeSub computes one submessage's parity (§4.1.2): sub holds its
// real bytes, at most k chunks, and parity receives its m chunks.
func (s *opScratch) encodeSub(code ec.Code, k, m, chunkBytes int, sub, parity []byte) error {
	data := scratchN(&s.dataShards, k)
	for j := range data {
		data[j], _ = s.shard(sub, j, chunkBytes)
	}
	par := scratchN(&s.parityShards, m)
	for j := range par {
		par[j] = parity[j*chunkBytes : (j+1)*chunkBytes]
	}
	return code.Encode(data, par)
}

// recoverSub reports whether the submessage posted as dataH (real
// bytes sub) with parity parityH (m chunks in parity) is complete or
// recoverable, decoding the missing data chunks in place when parity
// covers them. missing counts the data chunks that never arrived; it
// is nonzero exactly when recovery needed a decode.
func (s *opScratch) recoverSub(code ec.Code, k, m, chunkBytes int, sub, parity []byte,
	dataH, parityH *core.RecvHandle) (ok bool, missing int) {
	real := (len(sub) + chunkBytes - 1) / chunkBytes
	present := scratchN(&s.present, k+m)
	dataBM := dataH.Bitmap()
	for j := 0; j < real; j++ {
		present[j] = dataBM.Test(j)
		if !present[j] {
			missing++
		}
	}
	if missing == 0 {
		return true, 0
	}
	for j := real; j < k; j++ {
		present[j] = true // virtual zero chunks never travel
	}
	parityBM := parityH.Bitmap()
	for j := 0; j < m; j++ {
		present[k+j] = parityBM.Test(j)
	}
	if !code.CanRecover(present) {
		return false, missing
	}
	shards := scratchN(&s.shards, k+m)
	tailChunk := -1
	for j := 0; j < k; j++ {
		var tail bool
		if shards[j], tail = s.shard(sub, j, chunkBytes); tail {
			tailChunk = j
		}
	}
	for j := 0; j < m; j++ {
		shards[k+j] = parity[j*chunkBytes : (j+1)*chunkBytes]
	}
	presentCopy := scratchN(&s.presentCopy, k+m)
	copy(presentCopy, present)
	if err := code.Reconstruct(shards, presentCopy); err != nil {
		return false, missing
	}
	if tailChunk >= 0 && !present[tailChunk] {
		// write back only the real bytes of the recovered tail
		lo := tailChunk * chunkBytes
		copy(sub[lo:], shards[tailChunk][:len(sub)-lo])
	}
	return true, missing
}

// sendParity encodes the (k, m) parity of submessage idx, whose real
// bytes are sub, into parity and sends it as a one-shot SDR send. The
// wire aliases parity until the operation completes.
func (e *Endpoint) sendParity(what string, idx, k, m int, sub, parity []byte) error {
	code, err := e.code(k, m)
	if err != nil {
		return err
	}
	if err := e.scr.encodeSub(code, k, m, e.QP.Config().ChunkBytes, sub, parity); err != nil {
		return fmt.Errorf("reliability: %s %d parity encode: %w", what, idx, err)
	}
	if _, err := e.QP.SendPostTimeout(parity, 0, e.Cfg.GlobalTimeout); err != nil {
		return startErr(fmt.Sprintf("%s %d parity send", what, idx), err)
	}
	return nil
}

// nackEntry lists the data chunks of submessage sub that have not
// arrived on h.
func (s *opScratch) nackEntry(sub int, h *core.RecvHandle) ecNackEntry {
	bm := h.Bitmap()
	s.missBuf = bm.Missing(s.missBuf[:0], 0, bm.Len())
	missing := make([]uint32, len(s.missBuf))
	for j, c := range s.missBuf {
		missing[j] = uint32(c)
	}
	return ecNackEntry{submsg: uint32(sub), missing: missing}
}

// sendNack sends the EC fallback NACK for operation opID; seg is the
// segment index its telemetry event carries (-1 for a whole message).
func (e *Endpoint) sendNack(opID uint64, seg int64, entries []ecNackEntry) {
	miss := 0
	for _, en := range entries {
		miss += len(en.missing)
	}
	e.NacksSent.Add(1)
	e.probe(telemetry.EvNack, int64(miss), seg, 0, 0)
	e.CP.send(ctrlMsg{typ: msgECNack, opID: opID, nackSubmsgs: entries})
}

// WriteEC reliably writes data using the erasure-coding scheme of
// §4.1.2: each data submessage goes out as a streaming SDR send (kept
// open for fallback retransmission), its parity as a one-shot send.
// The sender finishes on the receiver's positive ACK; an EC NACK
// triggers Selective-Repeat-style retransmission of the listed missing
// chunks through the open streams.
func (e *Endpoint) WriteEC(data []byte) error {
	e.opMu.Lock()
	defer e.opMu.Unlock()
	cfg := e.Cfg
	if _, err := e.code(cfg.K, cfg.M); err != nil {
		return err // an unusable code fails before anything is sent
	}
	chunkBytes := e.QP.Config().ChunkBytes
	sp := newSplit(len(data), cfg.K*chunkBytes)
	pb := cfg.M * chunkBytes

	// Interleaved injection: data_i (streaming) then parity_i
	// (one-shot), matching the receiver's posting order. Parity is
	// encoded inline (§4.1.2 notes encoding can overlap injection on
	// spare cores; Fig 11 measures the cost separately) into one
	// endpoint-pooled slab: the wire aliases it until the message is
	// acknowledged, which this operation awaits, so the next message may
	// reuse it. Every stream start is bounded by GlobalTimeout: a
	// crashed receiver surfaces as ErrPeerDead instead of stalling the
	// sender forever.
	paritySlab := scratchN(&e.scr.paritySlab, sp.n*pb)
	streams := scratchSlice(&e.scr.streams, sp.n)
	for i := 0; i < sp.n; i++ {
		lo, hi := sp.bytes(i)
		st, err := e.QP.SendStreamStartTimeout(hi-lo, 0, cfg.GlobalTimeout)
		if err != nil {
			return startErr(fmt.Sprintf("EC submessage %d stream", i), err)
		}
		streams[i] = st
		if err := st.Continue(0, data[lo:hi]); err != nil {
			return err
		}
		if err := e.sendParity("EC submessage", i, cfg.K, cfg.M, data[lo:hi], paritySlab[i*pb:(i+1)*pb]); err != nil {
			return err
		}
	}

	opID := streams[0].Seq()
	acks := e.CP.register(opID)
	defer e.CP.unregister(opID)

	clk := e.clock()
	deadline := clk.Now().Add(cfg.GlobalTimeout)
	var done bool
	apply := func(m ctrlMsg) error {
		switch m.typ {
		case msgECAck:
			done = true
		case msgECNack:
			if done {
				return nil
			}
			// Fallback: selective repeat of the reported missing
			// chunks through the still-open streams (§4.1.2).
			for _, entry := range m.nackSubmsgs {
				i := int(entry.submsg)
				if i >= sp.n {
					continue
				}
				lo, hi := sp.bytes(i)
				s := sendStream{st: streams[i], data: data[lo:hi], idx: int64(i)}
				if err := e.resendMissing(s, entry.missing); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for {
		epoch := clk.Epoch()
		if err := e.abortErr(); err != nil {
			return fmt.Errorf("EC write %d B: %w", len(data), err)
		}
		if _, err := drain(acks, apply); err != nil {
			return err
		}
		if done {
			for _, st := range streams {
				st.End()
			}
			return nil
		}
		if clk.Now().After(deadline) {
			return fmt.Errorf("%w: EC write %d B", ErrGlobalTimeout, len(data))
		}
		clk.WaitNotify(epoch, cfg.PollInterval)
	}
}

// ReceiveEC receives one erasure-coded Write into
// mr[offset:offset+size], using scratch for parity submessages
// (scratch must hold L·m·chunk bytes). The receiver polls the
// bitmaps, decodes submessages in place as soon as they are
// recoverable, and on fallback-timeout expiry NACKs the missing
// chunks of unrecoverable submessages (§4.1.2).
func (e *Endpoint) ReceiveEC(mr *nicsim.MR, offset uint64, size int, scratch *nicsim.MR) error {
	e.opMu.Lock()
	defer e.opMu.Unlock()
	cfg := e.Cfg
	code, err := e.code(cfg.K, cfg.M)
	if err != nil {
		return err
	}
	chunkBytes := e.QP.Config().ChunkBytes
	sp := newSplit(size, cfg.K*chunkBytes)
	pb := cfg.M * chunkBytes
	if need := uint64(sp.n * pb); scratch.Span() < need {
		return fmt.Errorf("reliability: parity scratch %d B, need %d", scratch.Span(), need)
	}

	// handles lists every posted slot in posting order — submessage
	// i's data at 2i, its parity at 2i+1. The finish and abandon paths
	// take the whole operation at once, so even an L≫1 message is one
	// re-ACK table entry and cannot evict its own slots.
	handles := make([]*core.RecvHandle, 0, 2*sp.n)
	for i := 0; i < sp.n; i++ {
		lo, hi := sp.bytes(i)
		dataH, err := e.QP.RecvPost(mr, offset+uint64(lo), hi-lo)
		if err != nil {
			return fmt.Errorf("reliability: EC data recv %d: %w", i, err)
		}
		parityH, err := e.QP.RecvPost(scratch, uint64(i*pb), pb)
		if err != nil {
			return fmt.Errorf("reliability: EC parity recv %d: %w", i, err)
		}
		handles = append(handles, dataH, parityH)
	}
	opID := handles[0].Seq()
	recovered := scratchSlice(&e.scr.recovered, sp.n)

	buf := mr.Bytes()
	scratchBuf := scratch.Bytes()
	// tryRecover decodes submessage i in place if possible.
	tryRecover := func(i int) bool {
		if !recovered[i] {
			lo, hi := sp.bytes(i)
			recovered[i], _ = e.scr.recoverSub(code, cfg.K, cfg.M, chunkBytes,
				buf[int(offset)+lo:int(offset)+hi], scratchBuf[i*pb:(i+1)*pb], handles[2*i], handles[2*i+1])
		}
		return recovered[i]
	}

	clk := e.clock()
	start := clk.Now()
	nextNack := start.Add(cfg.FTO()) // FTO armed at posting (§4.1.2)
	deadline := start.Add(cfg.GlobalTimeout)
	for {
		// Snapshot BEFORE probing recoverability: submessage
		// completions notify the clock, so the wait below wakes at the
		// exact delivery that makes recovery possible.
		epoch := clk.Epoch()
		allOK := true
		for i := range recovered {
			if !tryRecover(i) {
				allOK = false
			}
		}
		if allOK {
			// Late fallback retransmissions into any retired slot of
			// this message re-pull the positive ACK (see reack.go).
			e.finish(ctrlMsg{typ: msgECAck, opID: opID}, handles...)
			return nil
		}
		now := clk.Now()
		if err := e.stopErr(now, deadline); err != nil {
			abandon(handles...)
			return fmt.Errorf("EC receive %d B: %w", size, err)
		}
		if now.After(nextNack) {
			var entries []ecNackEntry
			for i, ok := range recovered {
				if !ok {
					entries = append(entries, e.scr.nackEntry(i, handles[2*i]))
				}
			}
			if len(entries) > 0 {
				e.sendNack(opID, -1, entries)
			}
			nextNack = now.Add(cfg.RTO())
		}
		clk.WaitNotify(epoch, cfg.PollInterval)
	}
}
