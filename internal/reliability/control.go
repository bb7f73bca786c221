package reliability

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/nicsim"
)

// control message types on the lossy UD control path (§4.1).
const (
	msgSRAck  = 1 // receiver → sender: cumulative + selective ACK
	msgECAck  = 2 // receiver → sender: all data submessages recovered
	msgECNack = 3 // receiver → sender: failed submessages + missing chunks
	msgPlan   = 4 // receiver → sender: adaptive segment scheme decision
)

// ctrlMsg is a decoded control packet.
type ctrlMsg struct {
	typ  byte
	opID uint64
	// SR ACK fields
	cumAck uint32
	sack   []byte // chunk bitmap starting at chunk 0 (snapshot)
	// EC NACK fields: per failed submessage, its index and missing
	// data-chunk list.
	nackSubmsgs []ecNackEntry
	// Plan fields: the receiver's scheme decision for adaptive segment
	// planSeg (see adaptive.go).
	planSeg    uint32
	planScheme byte
	planK      uint16
	planM      uint16
}

type ecNackEntry struct {
	submsg  uint32
	missing []uint32 // missing data-chunk indices within the submessage
}

// ControlPlane is one side's control endpoint: a UD QP plus a
// dispatcher routing inbound messages to per-operation channels.
// Dispatch is synchronous: the CQ hands each completion to the control
// plane inside the wire-delivery call (no poller goroutine), and every
// routed message bumps the clock's notification epoch so blocked
// senders/receivers re-check their state immediately — on the real
// clock this removes a goroutine hop, on the virtual clock it is what
// makes a blocked protocol loop wake at the exact delivery instant.
type ControlPlane struct {
	ud  *nicsim.UDQP
	cq  *nicsim.CQ
	clk clock.Clock

	peer uint32
	mtu  int

	mu       sync.Mutex
	handlers map[uint64]chan ctrlMsg
	bufs     [][]byte
	stopped  bool

	// sendMu serializes senders over encBuf, the reused wire-encoding
	// scratch. UDQP.Send copies the payload into the packet's own
	// pooled storage, so the scratch is free for reuse the moment Send
	// returns — no per-message encode allocation on the ACK path.
	sendMu sync.Mutex
	encBuf []byte

	// fault, when set, intercepts every outbound control payload (see
	// SetFault) — the chaos harness's control-plane drop / duplicate /
	// corrupt injection point.
	fault atomic.Pointer[CtrlFault]
}

// CtrlFaultAction is a CtrlFault's verdict on one outbound payload.
type CtrlFaultAction int

const (
	// CtrlPass transmits the payload normally.
	CtrlPass CtrlFaultAction = iota
	// CtrlDrop discards the payload (control is lossy by contract).
	CtrlDrop
	// CtrlDup transmits the payload twice.
	CtrlDup
)

// CtrlFault inspects one encoded outbound control payload and decides
// its fate. It may mutate the payload in place to model corruption —
// the CRC trailer has already been appended, so a mutated packet fails
// checksum validation at the receiver and is dropped like wire loss.
// Runs under the control plane's send lock; must not block.
type CtrlFault func(payload []byte) CtrlFaultAction

// SetFault registers fn (nil clears) on the outbound control path.
// Rebind clears it, so a pooled deployment never carries an old
// lease's fault injection into the next one.
func (cp *ControlPlane) SetFault(fn CtrlFault) {
	if fn == nil {
		cp.fault.Store(nil)
		return
	}
	cp.fault.Store(&fn)
}

// ctrlRecvBufs is the number of receive buffers a control plane keeps
// posted. The control CQ delivers synchronously and handleCQE reposts
// each buffer before it returns, so at most one buffer per goroutine
// delivering at that moment is ever out; 64 leaves ample headroom and
// keeps a deployment's two rings at 2×64 MTU-sized buffers.
const ctrlRecvBufs = 64

// NewControlPlane creates the control endpoint on dev transmitting via
// wire, waking clock waiters (nil = shared real clock) as messages
// arrive. Call ConnectCtrl with the peer's QPN before use. The session
// fabric builds pooled control planes with wire == nil — detached, to
// be attached per lease via Rebind.
func NewControlPlane(dev *nicsim.Device, wire nicsim.Wire, mtu int, clk clock.Clock) *ControlPlane {
	cq := nicsim.NewCQ(4096, false)
	cp := &ControlPlane{
		ud:       nicsim.NewUDQP(dev, mtu, cq),
		cq:       cq,
		clk:      clock.Or(clk),
		mtu:      mtu,
		handlers: make(map[uint64]chan ctrlMsg),
	}
	cp.ud.Attach(wire)
	// Keep a ring of receive buffers posted, carved from one slab.
	slab := make([]byte, ctrlRecvBufs*mtu)
	cp.bufs = make([][]byte, ctrlRecvBufs)
	for i := range cp.bufs {
		buf := slab[i*mtu : (i+1)*mtu : (i+1)*mtu]
		cp.bufs[i] = buf
		cp.ud.PostRecv(buf, uint64(i))
	}
	cq.SetSink(cp.handleCQE)
	return cp
}

// QPN returns the control UD QP number for the peer's ConnectCtrl.
func (cp *ControlPlane) QPN() uint32 { return cp.ud.QPN() }

// RNRDrops reports how many inbound control datagrams found no posted
// receive buffer since the last Rebind.
func (cp *ControlPlane) RNRDrops() uint64 { return cp.ud.RNRDrops.Load() }

// ConnectCtrl sets the peer control QPN.
func (cp *ControlPlane) ConnectCtrl(peerQPN uint32) { cp.peer = peerQPN }

// Rebind attaches the control plane to a new wire and drops all
// per-operation routing state — the per-lease reset of a pooled
// deployment. The receive slab stays posted and the UD QPN is stable
// across leases; control datagrams still in flight from a previous
// lease route to unregistered opIDs and are dropped.
func (cp *ControlPlane) Rebind(wire nicsim.Wire) {
	cp.mu.Lock()
	clear(cp.handlers)
	cp.stopped = false
	cp.mu.Unlock()
	cp.fault.Store(nil)
	cp.ud.ResetCounters()
	cp.ud.Attach(wire)
}

// SetClock moves the control plane's wake-up domain to clk (nil =
// shared real clock) — the re-homing half of leasing a pooled
// deployment onto a sweep lane's clock. Only call between leases.
func (cp *ControlPlane) SetClock(clk clock.Clock) {
	cp.clk = clock.Or(clk)
}

// Close stops dispatch: completions arriving afterwards are dropped.
func (cp *ControlPlane) Close() {
	cp.mu.Lock()
	cp.stopped = true
	cp.mu.Unlock()
	cp.cq.Close()
}

// register claims the control stream for operation opID.
func (cp *ControlPlane) register(opID uint64) chan ctrlMsg {
	ch := make(chan ctrlMsg, 64)
	cp.mu.Lock()
	cp.handlers[opID] = ch
	cp.mu.Unlock()
	return ch
}

func (cp *ControlPlane) unregister(opID uint64) {
	cp.mu.Lock()
	delete(cp.handlers, opID)
	cp.mu.Unlock()
}

// handleCQE is the CQ sink: it decodes one inbound control datagram,
// reposts its buffer, routes it, and wakes clock waiters.
func (cp *ControlPlane) handleCQE(cqe nicsim.CQE) {
	buf := cp.bufs[cqe.WRID%uint64(len(cp.bufs))]
	msg, err := decodeCtrl(buf[:cqe.ByteLen])
	// Repost the buffer immediately (UD consumes one per datagram).
	cp.ud.PostRecv(buf, cqe.WRID)
	if err != nil {
		return // malformed control packets are dropped
	}
	cp.mu.Lock()
	if cp.stopped {
		cp.mu.Unlock()
		return
	}
	ch := cp.handlers[msg.opID]
	cp.mu.Unlock()
	if ch != nil {
		select {
		case ch <- msg:
		default: // slow consumer: control is best-effort anyway
		}
		cp.clk.Notify()
	}
}

// send transmits a control message (unreliably), applying any
// registered fault injection first.
func (cp *ControlPlane) send(m ctrlMsg) error {
	cp.sendMu.Lock()
	defer cp.sendMu.Unlock()
	payload, err := encodeCtrlInto(cp.encBuf[:0], m, cp.mtu)
	if err != nil {
		return err
	}
	cp.encBuf = payload[:0]
	if f := cp.fault.Load(); f != nil {
		switch (*f)(payload) {
		case CtrlDrop:
			return nil
		case CtrlDup:
			if err := cp.ud.Send(cp.peer, payload, 0, false); err != nil {
				return err
			}
		}
	}
	return cp.ud.Send(cp.peer, payload, 0, false)
}

// --- wire format -----------------------------------------------------------
//
// byte 0:    type
// bytes 1-8: opID (LE)
// SR ACK:    cumAck u32, sackLen u16, sack bytes
// EC ACK:    (nothing)
// EC NACK:   count u16, then per entry: submsg u32, nMissing u16,
//            missing u32 each
// PLAN:      seg u32, scheme u8, k u16, m u16
// trailer:   crc32c over everything above (last 4 bytes)

// ctrlCRCLen is the checksum trailer size; every truncation budget
// must leave room for it.
const ctrlCRCLen = 4

var ctrlCRCTable = crc32.MakeTable(crc32.Castagnoli)

func encodeCtrl(m ctrlMsg, mtu int) ([]byte, error) {
	return encodeCtrlInto(make([]byte, 0, 64), m, mtu)
}

// encodeCtrlInto appends the encoding of m to buf (typically a reused
// scratch slice), seals it with the CRC trailer, and returns the
// extended slice.
func encodeCtrlInto(buf []byte, m ctrlMsg, mtu int) ([]byte, error) {
	buf = append(buf, m.typ)
	buf = binary.LittleEndian.AppendUint64(buf, m.opID)
	switch m.typ {
	case msgSRAck:
		buf = binary.LittleEndian.AppendUint32(buf, m.cumAck)
		sack := m.sack
		if max := mtu - len(buf) - 2 - ctrlCRCLen; len(sack) > max {
			sack = sack[:max] // as much of the bitmap as fits (§4.1.1)
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(sack)))
		buf = append(buf, sack...)
	case msgECAck:
	case msgPlan:
		buf = binary.LittleEndian.AppendUint32(buf, m.planSeg)
		buf = append(buf, m.planScheme)
		buf = binary.LittleEndian.AppendUint16(buf, m.planK)
		buf = binary.LittleEndian.AppendUint16(buf, m.planM)
	case msgECNack:
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.nackSubmsgs)))
		for _, e := range m.nackSubmsgs {
			need := 4 + 2 + 4*len(e.missing)
			if len(buf)+need > mtu-ctrlCRCLen {
				// truncate: remaining failures reported in a later NACK
				binary.LittleEndian.PutUint16(buf[9:], uint16(countEncoded(buf)))
				break
			}
			buf = binary.LittleEndian.AppendUint32(buf, e.submsg)
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(e.missing)))
			for _, c := range e.missing {
				buf = binary.LittleEndian.AppendUint32(buf, c)
			}
		}
	default:
		return nil, fmt.Errorf("reliability: unknown control type %d", m.typ)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, ctrlCRCTable)), nil
}

// countEncoded recounts how many NACK entries actually fit (used when
// truncating).
func countEncoded(buf []byte) int {
	n := 0
	off := 11
	for off < len(buf) {
		if off+6 > len(buf) {
			break
		}
		miss := int(binary.LittleEndian.Uint16(buf[off+4:]))
		off += 6 + 4*miss
		n++
	}
	return n
}

func decodeCtrl(buf []byte) (ctrlMsg, error) {
	if len(buf) < 9+ctrlCRCLen {
		return ctrlMsg{}, fmt.Errorf("reliability: short control packet (%d B)", len(buf))
	}
	body := buf[:len(buf)-ctrlCRCLen]
	if crc32.Checksum(body, ctrlCRCTable) != binary.LittleEndian.Uint32(buf[len(body):]) {
		return ctrlMsg{}, fmt.Errorf("reliability: control checksum mismatch")
	}
	buf = body
	m := ctrlMsg{typ: buf[0], opID: binary.LittleEndian.Uint64(buf[1:9])}
	rest := buf[9:]
	switch m.typ {
	case msgSRAck:
		if len(rest) < 6 {
			return ctrlMsg{}, fmt.Errorf("reliability: short SR ACK")
		}
		m.cumAck = binary.LittleEndian.Uint32(rest[0:])
		sackLen := int(binary.LittleEndian.Uint16(rest[4:]))
		if len(rest) < 6+sackLen {
			return ctrlMsg{}, fmt.Errorf("reliability: SR ACK sack truncated")
		}
		m.sack = append([]byte(nil), rest[6:6+sackLen]...)
	case msgECAck:
	case msgPlan:
		if len(rest) < 9 {
			return ctrlMsg{}, fmt.Errorf("reliability: short plan")
		}
		m.planSeg = binary.LittleEndian.Uint32(rest[0:])
		m.planScheme = rest[4]
		m.planK = binary.LittleEndian.Uint16(rest[5:])
		m.planM = binary.LittleEndian.Uint16(rest[7:])
	case msgECNack:
		if len(rest) < 2 {
			return ctrlMsg{}, fmt.Errorf("reliability: short EC NACK")
		}
		count := int(binary.LittleEndian.Uint16(rest[0:]))
		off := 2
		for i := 0; i < count; i++ {
			if off+6 > len(rest) {
				return ctrlMsg{}, fmt.Errorf("reliability: EC NACK truncated")
			}
			e := ecNackEntry{submsg: binary.LittleEndian.Uint32(rest[off:])}
			nMiss := int(binary.LittleEndian.Uint16(rest[off+4:]))
			off += 6
			if off+4*nMiss > len(rest) {
				return ctrlMsg{}, fmt.Errorf("reliability: EC NACK missing-list truncated")
			}
			for j := 0; j < nMiss; j++ {
				e.missing = append(e.missing, binary.LittleEndian.Uint32(rest[off:]))
				off += 4
			}
			m.nackSubmsgs = append(m.nackSubmsgs, e)
		}
	default:
		return ctrlMsg{}, fmt.Errorf("reliability: unknown control type %d", m.typ)
	}
	return m, nil
}
