package reliability

import (
	"sync"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/core"
	"sdrrdma/internal/ec"
	"sdrrdma/internal/telemetry"
)

// Endpoint is one side of a reliable connection: the SDR data path
// plus the lossy control path. Operations on a single endpoint are
// serialized (matching the paper's sequential per-connection stages);
// distinct endpoint pairs run concurrently.
//
// All waiting — RTO deadlines, poll cadences, ACK linger — goes
// through the deployment's clock.Clock: real time by default,
// discrete virtual time when the session was built on a
// clock.Virtual (in which case every Write and Receive must run in an
// actor goroutine, via clock.Join or Virtual.Go).
type Endpoint struct {
	QP   *core.QP
	CP   *ControlPlane
	Cfg  Config
	opMu sync.Mutex

	// reack answers late retransmissions into retired receive slots
	// with a copy of the slot's final ACK (see reack.go).
	reack reackTable

	// retires tracks receives whose final-ACK linger runs in the
	// background (see retire.go); Session.Close joins them.
	retMu   sync.Mutex
	retires []*pendingRetire

	// scr stages per-operation working state reused across the messages
	// of a long-lived session (chunk tracking, EC shard tables, parity
	// slabs, the instantiated code). Guarded by opMu like the
	// operations themselves.
	scr opScratch
	// ad is the adaptor ProtoAdaptive receives drive: created by the
	// first one and kept for the endpoint's lifetime (one session or
	// pooled lease). Guarded by opMu.
	ad *Adaptor

	// Retransmits counts chunk resends (all causes), NacksSent the
	// EC-mode NACK control messages, LateReAcks the re-ACK answers to
	// late retransmissions. They count whether or not a telemetry
	// recorder is attached; SetTelemetry registers them on one.
	Retransmits telemetry.Counter
	NacksSent   telemetry.Counter
	LateReAcks  telemetry.Counter

	// aborted holds the first Abort cause (abort.go); protocol loops
	// check it once per wake and unwind with ErrAborted.
	aborted abortState

	// tel is the flight-recorder attachment (zero value = dark: every
	// probe is a nil check and nothing else).
	tel endpointTel
}

// endpointTel bundles an endpoint's telemetry attachment: the event
// sink plus the direct-fed series handles (goodput and in-flight don't
// round-trip through events — the endpoint writes the series itself).
type endpointTel struct {
	sink     telemetry.Sink
	track    int32
	goodput  *telemetry.Series
	inflight *telemetry.Series
}

// SetTelemetry attaches the endpoint to a flight recorder under the
// given track name (e.g. "flow0/A"): retransmits, NACKs, late re-ACKs
// and adaptive ladder decisions become instant events; received-bytes
// goodput and sender in-flight chunks feed bucketed series; the
// unified counters register on rec. Call before starting operations;
// pass nil to detach.
func (e *Endpoint) SetTelemetry(rec *telemetry.Recorder, name string) {
	if rec == nil {
		e.tel = endpointTel{}
		return
	}
	track := rec.Track(name)
	e.tel = endpointTel{
		sink:     rec,
		track:    track,
		goodput:  rec.NewSeries(name+" goodput_bytes", track, telemetry.SeriesSum),
		inflight: rec.NewSeries(name+" inflight_chunks", track, telemetry.SeriesMax),
	}
	rec.RegisterCounter(name+" retransmits", &e.Retransmits)
	rec.RegisterCounter(name+" nacks_sent", &e.NacksSent)
	rec.RegisterCounter(name+" late_reacks", &e.LateReAcks)
}

// probe records one protocol event when a recorder is attached.
func (e *Endpoint) probe(kind telemetry.EventKind, a0, a1, a2, a3 int64) {
	if e.tel.sink == nil {
		return
	}
	e.tel.sink.Event(clock.NowNanos(e.clock()), kind, e.tel.track, a0, a1, a2, a3)
}

// noteInflight feeds the sender's outstanding-chunk series.
func (e *Endpoint) noteInflight(outstanding int) {
	if e.tel.inflight == nil {
		return
	}
	e.tel.inflight.ObserveMax(clock.NowNanos(e.clock()), int64(outstanding))
}

// noteGoodput feeds received bytes into the goodput series.
func (e *Endpoint) noteGoodput(bytes int64) {
	if e.tel.goodput == nil || bytes <= 0 {
		return
	}
	e.tel.goodput.Add(clock.NowNanos(e.clock()), bytes)
}

// opScratch is the endpoint's pooled staging: every slice here would
// otherwise be a per-message allocation on the send/receive hot path,
// re-made thousands of times in a line-rate run. Reuse is safe because
// opMu serializes operations and every buffer's lifetime ends with its
// operation (UD control sends copy payloads; parity slabs are only
// aliased by the wire until the message completes, which the operation
// awaits before returning).
type opScratch struct {
	// srChunks holds the sender's chunk tracking: one message for
	// WriteSR, every segment's range of it for the adaptive sender.
	srChunks []chunkState
	streams  []*core.SendStream
	// recovered marks the EC receiver's completed submessages.
	recovered []bool
	// paritySlab stages the sender's parity, one region per EC
	// submessage or adaptive segment, so submessages that are open at
	// the same time never share a buffer.
	paritySlab []byte
	adSend     []adaptiveSegSender
	adRecv     []adaptiveSegRecv

	// The submessage codec's working set (ec.go).
	dataShards, parityShards, shards [][]byte
	present, presentCopy             []bool
	// zeroChunk is all-zero and only ever read (it stands in for the
	// virtual zero chunks of a padded tail submessage), so reuse never
	// re-clears it.
	zeroChunk   []byte
	tailScratch []byte
	missBuf     []int

	// codes caches the erasure code per (K, M) split of the endpoint's
	// code family: RS construction builds the encode and repair
	// matrices, far too expensive to redo per message, and codes are
	// stateless once built, so messages share them.
	codes map[Mode]ec.Code
}

// scratchSlice returns (*s)[:n] with reused capacity, zeroing the
// elements so stale state from the previous operation cannot leak.
func scratchSlice[T any](s *[]T, n int) []T {
	out := scratchN(s, n)
	clear(out)
	return out
}

// scratchN returns (*s)[:n] with reused capacity and undefined
// contents (callers fully overwrite it).
func scratchN[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// scratchZero returns the shared n-byte all-zero chunk.
func (s *opScratch) scratchZero(n int) []byte {
	if cap(s.zeroChunk) < n {
		s.zeroChunk = make([]byte, n)
	}
	return s.zeroChunk[:n]
}

// code returns the endpoint's (k, m) erasure code, built on first use.
func (e *Endpoint) code(k, m int) (ec.Code, error) {
	key := Mode{Scheme: SchemeEC, K: k, M: m}
	if code, ok := e.scr.codes[key]; ok {
		return code, nil
	}
	c := e.Cfg
	c.K, c.M = k, m
	code, err := c.NewCode()
	if err != nil {
		return nil, err
	}
	if e.scr.codes == nil {
		e.scr.codes = map[Mode]ec.Code{}
	}
	e.scr.codes[key] = code
	return code, nil
}

// NewEndpoint bundles a connected SDR QP and control plane.
func NewEndpoint(qp *core.QP, cp *ControlPlane, cfg Config) *Endpoint {
	e := &Endpoint{QP: qp, CP: cp, Cfg: cfg.WithDefaults()}
	if !e.Cfg.NoLateReAck {
		qp.SetLateSink(e.handleLate)
	}
	return e
}

// clock returns the deployment clock.
func (e *Endpoint) clock() clock.Clock { return e.QP.Clock() }

// drain empties the control channel without blocking, applying each
// message, and reports whether anything arrived. It stops at the first
// error apply returns.
func drain(acks <-chan ctrlMsg, apply func(ctrlMsg) error) (bool, error) {
	got := false
	for {
		select {
		case m := <-acks:
			got = true
			if err := apply(m); err != nil {
				return got, err
			}
		default:
			return got, nil
		}
	}
}

// sendStream is one open SDR send stream over data: chunks resend
// through it until the operation ends the stream.
type sendStream struct {
	st   *core.SendStream
	data []byte
	// idx is the submessage or segment index retransmit events carry.
	idx int64
}

// resend re-injects chunk c of s.
func (e *Endpoint) resend(s sendStream, c int, cause int64) error {
	chunkBytes := e.QP.Config().ChunkBytes
	lo := c * chunkBytes
	hi := min(lo+chunkBytes, len(s.data))
	e.Retransmits.Add(1)
	e.probe(telemetry.EvRetransmit, int64(c), cause, s.idx, 0)
	return s.st.Continue(lo, s.data[lo:hi])
}

// resendMissing re-injects the chunks an EC NACK lists for s,
// skipping indices past its end.
func (e *Endpoint) resendMissing(s sendStream, missing []uint32) error {
	chunkBytes := e.QP.Config().ChunkBytes
	for _, c := range missing {
		if int(c)*chunkBytes >= len(s.data) {
			continue
		}
		if err := e.resend(s, int(c), telemetry.CauseNack); err != nil {
			return err
		}
	}
	return nil
}
