package reliability

import (
	"fmt"
	"time"

	"sdrrdma/internal/core"
	"sdrrdma/internal/ec"
	"sdrrdma/internal/nicsim"
	"sdrrdma/internal/telemetry"
)

// Adaptive mid-flight reliability (ROADMAP item 3): instead of fixing
// SR or EC for the whole connection, the transfer is cut into segments
// of SegmentChunks chunks and each segment runs the scheme a
// per-session Adaptor picked from the signals of already-completed
// segments — duplicate arrivals (retransmission ≈ wire loss), missing
// data chunks recovered from parity (erasure rate), and ECN marks
// (congestion, which parity would worsen rather than mask).
//
// The decision is receiver-driven: every adaptation signal already
// lives on the receiver (bitmaps, duplicate counters, the Marked bit
// threaded up from netem queues), so the receiver picks the scheme
// when it posts a segment and announces it to the sender in a plan
// control message. Segment 0 always runs Ladder[0], so the transfer
// needs no rendezvous before first byte.
//
// Segments overlap in a window: the receiver keeps up to Window
// segments posted ahead of the completion head, and the sender starts
// a segment as soon as its plan is known and the matching clear-to-
// send arrived (QP.SendReady — never blocking the pump loop that
// services retransmissions of open segments). Completion and
// observation advance strictly in segment order, which is what makes
// the adaptation trajectory — and therefore every byte on the wire —
// deterministic per seed.
//
// Loss robustness of the control additions mirrors the rest of the
// protocol: plans ride the lossy control path, so the receiver
// re-sends the plan of any posted segment that has seen no arrivals on
// every ACK tick, and the sender ignores plans for segments it already
// started.

// Scheme selects a per-segment reliability scheme.
type Scheme byte

const (
	// SchemeSR runs the segment under Selective Repeat with
	// ack-evidence repair — zero overhead bytes, recovery costs round
	// trips.
	SchemeSR Scheme = iota
	// SchemeEC runs the segment erasure-coded — overhead bytes buy
	// recovery without retransmission round trips.
	SchemeEC
)

func (s Scheme) String() string {
	if s == SchemeSR {
		return "sr"
	}
	return "ec"
}

// Mode is one rung of the adaptive ladder: a scheme plus its EC split.
type Mode struct {
	Scheme Scheme
	// K and M are the erasure-code split (SchemeEC only). K must equal
	// AdaptorConfig.SegmentChunks so each segment is exactly one
	// submessage.
	K, M int
}

// Name labels the mode for figure output.
func (m Mode) Name() string {
	if m.Scheme == SchemeSR {
		return "sr"
	}
	return fmt.Sprintf("ec(%d,%d)", m.K, m.M)
}

// AdaptorConfig tunes the adaptive controller.
type AdaptorConfig struct {
	// SegmentChunks is the adaptation granularity: scheme switches
	// happen only at boundaries of SegmentChunks-chunk segments.
	SegmentChunks int
	// Window bounds how many segments the receiver keeps posted ahead
	// of the completion head. It must cover the path's bandwidth-delay
	// product (in segments) or the pipeline throttles below line rate.
	Window int
	// Ladder orders the modes from cheapest (index 0, clean network) to
	// most protective. Escalation and de-escalation move one rung at a
	// time. Ladder[0] is the segment-0 convention both sides assume.
	Ladder []Mode
	// EnterLoss and ExitLoss are the hysteresis thresholds on the
	// per-segment loss signal: escalate at or above EnterLoss,
	// de-escalate at or below ExitLoss. EnterLoss > ExitLoss keeps a
	// flapping signal from thrashing the ladder.
	EnterLoss, ExitLoss float64
	// CongestionMarkFrac discriminates congestion from wire loss: when
	// at least this fraction of a segment's packets carried the ECN
	// mark, the loss is self-inflicted queue pressure and the adaptor
	// de-escalates (parity overhead feeds the queue) instead of
	// escalating.
	CongestionMarkFrac float64
	// MinDwell is the floor: at least this many segments must complete
	// between consecutive switches.
	MinDwell int
}

// WithDefaults fills zero fields with the regime-sweep calibration.
func (c AdaptorConfig) WithDefaults() AdaptorConfig {
	if c.SegmentChunks == 0 {
		c.SegmentChunks = 16
	}
	if c.Window == 0 {
		c.Window = 6
	}
	if c.Ladder == nil {
		k := c.SegmentChunks
		c.Ladder = []Mode{
			{Scheme: SchemeSR},
			{Scheme: SchemeEC, K: k, M: (k + 7) / 8},
			{Scheme: SchemeEC, K: k, M: (k + 3) / 4},
			{Scheme: SchemeEC, K: k, M: (k + 1) / 2},
		}
	}
	if c.EnterLoss == 0 {
		c.EnterLoss = 0.02
	}
	if c.ExitLoss == 0 {
		c.ExitLoss = 0.005
	}
	if c.CongestionMarkFrac == 0 {
		c.CongestionMarkFrac = 0.05
	}
	if c.MinDwell == 0 {
		c.MinDwell = 2
	}
	return c
}

// Validate reports configuration errors.
func (c AdaptorConfig) Validate() error {
	switch {
	case c.SegmentChunks <= 0:
		return fmt.Errorf("reliability: adaptor segment %d chunks <= 0", c.SegmentChunks)
	case c.Window <= 0:
		return fmt.Errorf("reliability: adaptor window %d <= 0", c.Window)
	case len(c.Ladder) == 0:
		return fmt.Errorf("reliability: adaptor ladder empty")
	case c.EnterLoss <= c.ExitLoss:
		return fmt.Errorf("reliability: adaptor hysteresis inverted (enter %g <= exit %g)",
			c.EnterLoss, c.ExitLoss)
	case c.ExitLoss < 0:
		return fmt.Errorf("reliability: adaptor exit threshold %g < 0", c.ExitLoss)
	case c.CongestionMarkFrac <= 0 || c.CongestionMarkFrac > 1:
		return fmt.Errorf("reliability: adaptor mark fraction %g outside (0,1]", c.CongestionMarkFrac)
	case c.MinDwell < 1:
		return fmt.Errorf("reliability: adaptor dwell floor %d < 1", c.MinDwell)
	}
	for i, m := range c.Ladder {
		if m.Scheme == SchemeSR {
			continue
		}
		if m.K != c.SegmentChunks {
			return fmt.Errorf("reliability: ladder[%d] K=%d != segment chunks %d (one submessage per segment)",
				i, m.K, c.SegmentChunks)
		}
		if m.M <= 0 {
			return fmt.Errorf("reliability: ladder[%d] M=%d <= 0", i, m.M)
		}
	}
	return nil
}

// SegStats is what the receiver observed over one completed segment —
// the adaptor's only input.
type SegStats struct {
	// Seg is the segment index; Mode the scheme it ran under.
	Seg  int
	Mode Mode
	// Arrived counts packets accepted across the segment's receives;
	// Dups the accepted packets that were retransmission overlap;
	// Marked the accepted packets carrying the ECN bit.
	Arrived, Dups, Marked uint64
	// MissingData counts real data chunks that never arrived on the
	// wire (recovered from parity or NACK fallback); DataChunks the
	// segment's real data chunk count.
	MissingData, DataChunks int
	// Decoded reports whether the segment needed a parity decode.
	Decoded bool
}

// lossSignal condenses the stats into the scalar the hysteresis
// thresholds compare against: the wire-loss fraction the segment
// experienced.
func (s SegStats) lossSignal() float64 {
	var sig float64
	if s.Arrived > 0 {
		sig = float64(s.Dups) / float64(s.Arrived)
	}
	if s.DataChunks > 0 {
		if f := float64(s.MissingData) / float64(s.DataChunks); f > sig {
			sig = f
		}
	}
	return sig
}

// markFrac is the fraction of arrived packets that carried the ECN
// congestion-experienced bit.
func (s SegStats) markFrac() float64 {
	if s.Arrived == 0 {
		return 0
	}
	return float64(s.Marked) / float64(s.Arrived)
}

// Switch records one ladder move for figure output.
type Switch struct {
	AfterSeg int
	From, To Mode
}

// Adaptor is the per-session adaptation controller. It lives on the
// receiver, persists across transfers, and is NOT safe for concurrent
// use (operations on an endpoint are serialized anyway).
type Adaptor struct {
	cfg      AdaptorConfig
	idx      int
	dwell    int
	observed int
	switches []Switch
}

// NewAdaptor validates cfg (after defaults) and returns a controller
// starting at Ladder[0].
func NewAdaptor(cfg AdaptorConfig) (*Adaptor, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Adaptor{cfg: cfg, dwell: cfg.MinDwell}, nil
}

// Config returns the adaptor's configuration (defaults applied).
func (a *Adaptor) Config() AdaptorConfig { return a.cfg }

// Mode returns the mode the next posted segment should run under.
func (a *Adaptor) Mode() Mode { return a.cfg.Ladder[a.idx] }

// Rung returns the current ladder index.
func (a *Adaptor) Rung() int { return a.idx }

// Switches returns the ladder moves taken so far (shared; do not
// mutate).
func (a *Adaptor) Switches() []Switch { return a.switches }

// Observe feeds one completed segment's stats into the controller,
// possibly moving the ladder one rung. Hysteresis (EnterLoss/ExitLoss)
// and the MinDwell floor keep a flapping signal from thrashing.
func (a *Adaptor) Observe(s SegStats) {
	a.observed++
	a.dwell++
	if a.dwell < a.cfg.MinDwell {
		return
	}
	loss := s.lossSignal()
	congested := s.markFrac() >= a.cfg.CongestionMarkFrac
	next := a.idx
	switch {
	case congested:
		// Queue pressure: parity overhead feeds the very queue that is
		// marking, so shed protection instead of adding it.
		if a.idx > 0 {
			next = a.idx - 1
		}
	case loss >= a.cfg.EnterLoss:
		if a.idx < len(a.cfg.Ladder)-1 {
			next = a.idx + 1
		}
	case loss <= a.cfg.ExitLoss:
		if a.idx > 0 {
			next = a.idx - 1
		}
	}
	if next == a.idx {
		return
	}
	a.switches = append(a.switches, Switch{AfterSeg: s.Seg, From: a.cfg.Ladder[a.idx], To: a.cfg.Ladder[next]})
	a.idx = next
	a.dwell = 0
}

// --- geometry --------------------------------------------------------------

// planBit distinguishes the plan control stream's opID from real
// operation sequence numbers (which never reach the top bit).
const planBit = uint64(1) << 63

// segParityBytes is the per-segment parity region size: the most
// protective rung's M chunks (each segment is one submessage).
func segParityBytes(acfg AdaptorConfig, chunkBytes int) int {
	m := 0
	for _, r := range acfg.Ladder {
		if r.Scheme == SchemeEC {
			m = max(m, r.M)
		}
	}
	return m * chunkBytes
}

// AdaptiveScratchBytes returns the parity scratch ReceiveAdaptive
// requires for a message of msgBytes: one region per segment (regions
// are never reused, so a late parity packet from a stale path cannot
// corrupt a newer segment's scratch), each sized for the most
// protective rung.
func AdaptiveScratchBytes(acfg AdaptorConfig, chunkBytes, msgBytes int) int {
	acfg = acfg.WithDefaults()
	return newSplit(msgBytes, acfg.SegmentChunks*chunkBytes).n * segParityBytes(acfg, chunkBytes)
}

// --- sender ----------------------------------------------------------------

// adaptiveSegSender is one open segment on the sender.
type adaptiveSegSender struct {
	// srSender is the segment's stream; under SR it also tracks the
	// segment's chunks.
	srSender
	mode Mode
	acks chan ctrlMsg
	done bool
}

// apply handles one control message addressed to the segment.
func (s *adaptiveSegSender) apply(e *Endpoint, m ctrlMsg) error {
	switch m.typ {
	case msgSRAck:
		if s.mode.Scheme != SchemeSR {
			return nil
		}
		s.applyAck(m)
		if s.acked >= len(s.chunks) {
			s.done = true
		}
	case msgECAck:
		if s.mode.Scheme == SchemeEC {
			s.done = true
		}
	case msgECNack:
		if s.mode.Scheme != SchemeEC || s.done {
			return nil
		}
		// Parity was not enough: selective repeat of the missing data
		// chunks through the still-open segment stream.
		for _, entry := range m.nackSubmsgs {
			if entry.submsg != 0 {
				continue // one submessage per segment
			}
			if err := e.resendMissing(s.sendStream, entry.missing); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteAdaptive reliably writes data under the adaptive segment
// protocol. acfg must match the receiver's Adaptor configuration
// (SegmentChunks, Window and Ladder[0] are load-bearing; the rest of
// the ladder is learned from plan messages, up to the parity size of
// acfg's most protective rung).
func (e *Endpoint) WriteAdaptive(acfg AdaptorConfig, data []byte) error {
	e.opMu.Lock()
	defer e.opMu.Unlock()
	acfg = acfg.WithDefaults()
	if err := acfg.Validate(); err != nil {
		return err
	}
	cfg := e.Cfg
	clk := e.clock()
	chunkBytes := e.QP.Config().ChunkBytes
	g := newSplit(len(data), acfg.SegmentChunks*chunkBytes)

	// Erasure codes per distinct EC rung, built once.
	for _, m := range acfg.Ladder {
		if m.Scheme != SchemeEC {
			continue
		}
		if _, err := e.code(m.K, m.M); err != nil {
			return err
		}
	}

	// Staging: segment i tracks its chunks in its range of the chunk
	// slab and encodes its parity into region i of the parity slab.
	segs := scratchSlice(&e.scr.adSend, g.n)
	chunks := scratchSlice(&e.scr.srChunks, (len(data)+chunkBytes-1)/chunkBytes)
	perSeg := segParityBytes(acfg, chunkBytes)
	paritySlab := scratchN(&e.scr.paritySlab, g.n*perSeg)
	plans := make([]Mode, g.n)
	planKnown := make([]bool, g.n)
	plans[0], planKnown[0] = acfg.Ladder[0], true

	start := func(i int) error {
		lo, hi := g.bytes(i)
		c0 := i * acfg.SegmentChunks
		t, acks, err := e.startSR("adaptive segment", i, data[lo:hi], chunks[c0:c0+(hi-lo+chunkBytes-1)/chunkBytes])
		if err != nil {
			return err
		}
		segs[i] = adaptiveSegSender{srSender: t, mode: plans[i], acks: acks}
		if m := plans[i]; m.Scheme == SchemeEC {
			return e.sendParity("adaptive segment", i, m.K, m.M, data[lo:hi], paritySlab[i*perSeg:i*perSeg+m.M*chunkBytes])
		}
		return nil
	}

	// Segment 0 starts unconditionally (the receiver posts it on entry)
	// and anchors the plan stream's opID on both sides.
	if err := start(0); err != nil {
		return err
	}
	started := 1
	planID := planBit | segs[0].key
	planCh := e.CP.register(planID)
	defer e.CP.unregister(planID)
	defer func() {
		for i := 0; i < started; i++ {
			if !segs[i].done {
				e.CP.unregister(segs[i].key)
			}
		}
	}()

	applyPlan := func(m ctrlMsg) error {
		if m.typ != msgPlan {
			return nil
		}
		i := int(m.planSeg)
		if i >= g.n || i < started {
			return nil // stale or already committed
		}
		mode := Mode{Scheme: Scheme(m.planScheme)}
		if mode.Scheme == SchemeEC {
			mode.K, mode.M = int(m.planK), int(m.planM)
			if mode.K != acfg.SegmentChunks || mode.M*chunkBytes > perSeg {
				return nil // unusable plan: keep waiting for a sane one
			}
			if _, err := e.code(mode.K, mode.M); err != nil {
				return nil
			}
		}
		plans[i], planKnown[i] = mode, true
		return nil
	}

	rto := cfg.RTO()
	deadline := clk.Now().Add(cfg.GlobalTimeout)
	completed := 0
	for completed < g.n {
		epoch := clk.Epoch()
		if err := e.abortErr(); err != nil {
			return fmt.Errorf("adaptive write %d B: %w", len(data), err)
		}
		_, _ = drain(planCh, applyPlan) // applyPlan skips unusable plans; it never fails
		// Start every segment whose plan is known and whose receive is
		// already posted: SendReady keeps this loop non-blocking, so a
		// stalled head segment can still be pumped below.
		for started < g.n && planKnown[started] && e.QP.SendReady() {
			if err := start(started); err != nil {
				return err
			}
			started++
		}
		now := clk.Now()
		// Drain every segment's acks first, so repair below sees one
		// consistent ack snapshot. First transmissions are injected
		// strictly in segment order, so ack evidence from segment j
		// proves every chunk of segments i < j crossed the network once
		// — and had a chunk survived, its own SACK would be in the same
		// drained batch (the receiver SACKs every posted segment each
		// ack interval). A hole in the snapshot is therefore loss, not
		// data in flight, and the first repair needs no age gate at all:
		// age-gating against a fixed RTT underestimates queueing delay
		// and turns every standing queue into spurious retransmissions.
		maxAcked := -1
		for i := completed; i < started; i++ {
			s := &segs[i]
			if s.done {
				maxAcked = i
				continue
			}
			if _, err := drain(s.acks, func(m ctrlMsg) error { return s.apply(e, m) }); err != nil {
				return err
			}
			if s.done {
				s.st.End()
				e.CP.unregister(s.key)
			}
			if s.done || s.acked > 0 {
				maxAcked = i
			}
		}
		for i := completed; i < started; i++ {
			s := &segs[i]
			if s.done || s.mode.Scheme != SchemeSR {
				continue
			}
			// Evidence frontier: every chunk below the segment's own
			// highest acked chunk is provably lost — or the whole
			// segment is, when a later segment has acked anything.
			limit := len(s.chunks)
			if i >= maxAcked {
				limit = s.frontier()
			}
			for c := 0; c < limit; c++ {
				if !s.chunks[c].acked && !s.chunks[c].repaired {
					s.chunks[c].repaired = true
					if err := s.resend(e, c, telemetry.CauseHole); err != nil {
						return err
					}
				}
			}
			// RTO sweep: the last resort for repairs that were
			// themselves lost and for tail holes with no later evidence.
			if err := s.rtoSweep(e, now, rto); err != nil {
				return err
			}
		}
		for completed < started && segs[completed].done {
			completed++
		}
		if completed >= g.n {
			break
		}
		if now.After(deadline) {
			return fmt.Errorf("%w: adaptive write %d B, %d/%d segments done",
				ErrGlobalTimeout, len(data), completed, g.n)
		}
		if e.tel.inflight != nil {
			out := 0
			for i := completed; i < started; i++ {
				if s := &segs[i]; !s.done {
					out += len(s.chunks) - s.acked
				}
			}
			e.noteInflight(out)
		}
		clk.WaitNotify(epoch, cfg.PollInterval)
	}
	return nil
}

// rungOf returns mode's index on the ladder (-1 when absent).
func rungOf(acfg AdaptorConfig, m Mode) int {
	for i, r := range acfg.Ladder {
		if r == m {
			return i
		}
	}
	return -1
}

// --- receiver --------------------------------------------------------------

// adaptiveSegRecv is one posted segment on the receiver.
type adaptiveSegRecv struct {
	idx  int
	mode Mode
	// data is the segment's region of the receive buffer, parity its
	// parity region of the scratch buffer (SchemeEC only).
	data, parity []byte

	dataH   *core.RecvHandle
	parityH *core.RecvHandle // SchemeEC only

	code      ec.Code
	recovered bool
	missing   int // data chunks absent at recovery; nonzero = decoded

	sawData  bool
	seen     uint64 // packets observed at last tick (progress gate)
	nextNack time.Time
	sackBuf  []byte
}

// ReceiveAdaptive receives one adaptive Write into
// mr[offset:offset+size], driving ad's scheme decisions from the
// observed per-segment signals. scratch must hold
// AdaptiveScratchBytes(ad.Config(), chunkBytes, size) bytes.
func (e *Endpoint) ReceiveAdaptive(ad *Adaptor, mr *nicsim.MR, offset uint64, size int, scratch *nicsim.MR) error {
	e.opMu.Lock()
	defer e.opMu.Unlock()
	return e.receiveAdaptive(ad, mr, offset, size, scratch)
}

// receiveAdaptive is ReceiveAdaptive with opMu held.
func (e *Endpoint) receiveAdaptive(ad *Adaptor, mr *nicsim.MR, offset uint64, size int, scratch *nicsim.MR) error {
	cfg := e.Cfg
	acfg := ad.cfg
	clk := e.clock()
	chunkBytes := e.QP.Config().ChunkBytes
	g := newSplit(size, acfg.SegmentChunks*chunkBytes)
	perSeg := segParityBytes(acfg, chunkBytes)
	if need := uint64(g.n * perSeg); scratch.Span() < need {
		return fmt.Errorf("reliability: adaptive scratch %d B, need %d", scratch.Span(), need)
	}

	segs := scratchSlice(&e.scr.adRecv, g.n)
	buf := mr.Bytes()
	scratchBuf := scratch.Bytes()
	var planID uint64
	fto := cfg.FTO()

	posted := 0
	post := func() error {
		i := posted
		mode := ad.Mode()
		if i == 0 {
			mode = acfg.Ladder[0] // the no-rendezvous convention
		}
		s := &segs[i]
		*s = adaptiveSegRecv{idx: i, mode: mode}
		lo, hi := g.bytes(i)
		lo, hi = lo+int(offset), hi+int(offset)
		var err error
		s.dataH, err = e.QP.RecvPost(mr, uint64(lo), hi-lo)
		if err != nil {
			return fmt.Errorf("reliability: adaptive segment %d recv: %w", i, err)
		}
		s.data = buf[lo:hi]
		if mode.Scheme == SchemeEC {
			if s.code, err = e.code(mode.K, mode.M); err != nil {
				return err
			}
			s.parity = scratchBuf[i*perSeg : i*perSeg+mode.M*chunkBytes]
			s.parityH, err = e.QP.RecvPost(scratch, uint64(i*perSeg), len(s.parity))
			if err != nil {
				return fmt.Errorf("reliability: adaptive segment %d parity recv: %w", i, err)
			}
			// The first fallback deadline must cover the posting-ahead
			// pipeline lag — this segment is posted up to Window segments
			// before the sender's stream reaches it — not just the
			// injection estimate, or it NACKs data that is still queued
			// behind its predecessors. Once packets arrive, the progress
			// gate in tick re-arms the timer from observed deliveries.
			s.nextNack = clk.Now().Add(fto + cfg.RTO())
		}
		if i == 0 {
			// Segment 0's receive sequence number anchors the plan
			// stream's opID, which every later plan needs.
			planID = planBit | s.dataH.Seq()
		} else {
			e.sendPlan(planID, s)
		}
		e.probe(telemetry.EvSegPlan, int64(i), int64(rungOf(acfg, mode)), 0, 0)
		posted++
		return nil
	}
	postAhead := func(head int) error {
		for posted < g.n && posted < head+acfg.Window {
			if err := post(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := postAhead(0); err != nil {
		return err
	}

	// tryRecover reports whether segment s is fully delivered (SR) or
	// recoverable/recovered (EC), decoding in place on first success.
	tryRecover := func(s *adaptiveSegRecv) bool {
		switch {
		case s.recovered:
		case s.mode.Scheme == SchemeSR:
			s.recovered = s.dataH.Done()
		default:
			s.recovered, s.missing = e.scr.recoverSub(s.code, s.mode.K, s.mode.M, chunkBytes,
				s.data, s.parity, s.dataH, s.parityH)
		}
		return s.recovered
	}

	// finalize finishes the segment (final control message, background
	// retire), then feeds the adaptor.
	finalize := func(s *adaptiveSegRecv) {
		if s.mode.Scheme == SchemeSR {
			e.finish(srAck(s.dataH, nil), s.dataH)
		} else {
			e.finish(ctrlMsg{typ: msgECAck, opID: s.dataH.Seq()}, s.dataH, s.parityH)
		}
		stats := SegStats{
			Seg:         s.idx,
			Mode:        s.mode,
			Arrived:     uint64(s.dataH.PacketBitmap().Count()),
			Dups:        s.dataH.DuplicatePackets(),
			Marked:      s.dataH.MarkedPackets(),
			DataChunks:  s.dataH.NumChunks(),
			MissingData: s.missing,
			Decoded:     s.missing > 0,
		}
		if s.parityH != nil {
			stats.Arrived += uint64(s.parityH.PacketBitmap().Count())
			stats.Dups += s.parityH.DuplicatePackets()
			stats.Marked += s.parityH.MarkedPackets()
		}
		before := ad.Rung()
		ad.Observe(stats)
		e.noteGoodput(int64(len(s.data)))
		if e.tel.sink != nil {
			lossPPM := int64(stats.lossSignal() * 1e6)
			markPPM := int64(stats.markFrac() * 1e6)
			e.probe(telemetry.EvSegStats, int64(s.idx), lossPPM, markPPM, int64(before))
			if after := ad.Rung(); after != before {
				e.probe(telemetry.EvLadderSwitch, int64(s.idx), int64(before), int64(after), lossPPM)
			}
		}
	}

	// tick runs one segment's periodic duties: SR progress ACKs, EC
	// fallback NACKs, and plan re-sends while the sender may not have
	// heard the plan yet.
	tick := func(s *adaptiveSegRecv, now time.Time) {
		if !s.sawData && s.dataH.PacketBitmap().Count() > 0 {
			s.sawData = true
		}
		if s.idx > 0 && !s.sawData {
			e.sendPlan(planID, s) // plan may have been lost; data cannot flow without it
		}
		switch s.mode.Scheme {
		case SchemeSR:
			ack := srAck(s.dataH, s.sackBuf)
			s.sackBuf = ack.sack
			e.CP.send(ack)
		case SchemeEC:
			// Recoverable segments need no repair traffic: parity already
			// covers the losses, and the decode happens when the head
			// reaches them. Without this check a parity-covered segment
			// parked behind a stalled head NACKs its missing data chunks
			// every round, and every resend is a pure duplicate.
			if tryRecover(s) {
				return
			}
			if n := uint64(s.dataH.PacketBitmap().Count()) + uint64(s.parityH.PacketBitmap().Count()); n > s.seen {
				// The stream is still making progress; a gap now is
				// indistinguishable from in-flight data, so re-arm the
				// fallback from the latest delivery instead of NACKing
				// into the pipe. Half an RTT of silence on a segment the
				// sender has already reached means loss, not reordering:
				// the stream is strictly windowed, so nothing legitimate
				// arrives that far behind the frontier.
				s.seen = n
				s.nextNack = now.Add(cfg.RTT / 2)
				return
			}
			if now.After(s.nextNack) {
				if en := e.scr.nackEntry(0, s.dataH); len(en.missing) > 0 {
					e.sendNack(s.dataH.Seq(), int64(s.idx), []ecNackEntry{en})
				}
				s.nextNack = now.Add(cfg.RTT)
			}
		}
	}

	head := 0
	start := clk.Now()
	deadline := start.Add(cfg.GlobalTimeout)
	nextAck := start.Add(cfg.AckInterval)
	for head < g.n {
		epoch := clk.Epoch()
		// Advance the completion head in order: observation order is
		// what keeps the adaptation trajectory deterministic.
		for head < posted && tryRecover(&segs[head]) {
			finalize(&segs[head])
			head++
			if err := postAhead(head); err != nil {
				return err
			}
		}
		if head >= g.n {
			break
		}
		now := clk.Now()
		if err := e.stopErr(now, deadline); err != nil {
			for i := head; i < posted; i++ {
				abandon(segs[i].dataH, segs[i].parityH)
			}
			return fmt.Errorf("adaptive receive %d B, %d/%d segments: %w", size, head, g.n, err)
		}
		if !now.Before(nextAck) {
			for i := head; i < posted; i++ {
				tick(&segs[i], now)
			}
			nextAck = now.Add(cfg.AckInterval)
		}
		clk.WaitNotify(epoch, nextAck.Sub(now))
	}
	return nil
}

// sendPlan announces segment s's rung to the sender on the plan
// stream planID.
func (e *Endpoint) sendPlan(planID uint64, s *adaptiveSegRecv) {
	m := ctrlMsg{typ: msgPlan, opID: planID, planSeg: uint32(s.idx), planScheme: byte(s.mode.Scheme)}
	if s.mode.Scheme == SchemeEC {
		m.planK, m.planM = uint16(s.mode.K), uint16(s.mode.M)
	}
	e.CP.send(m)
}
