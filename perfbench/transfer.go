package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/core"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/netem"
	"sdrrdma/internal/nicsim"
	"sdrrdma/internal/reliability"
	"sdrrdma/internal/stats"
	"sdrrdma/internal/telemetry"
	"sdrrdma/internal/wan"
)

// The geometry every transfer workload shares: the deployment
// cmd/sdr-perftest builds.
const (
	msgBytes    = 4 << 20
	window      = 4 // receive regions in rotation
	mtu         = 4096
	chunkBytes  = 64 << 10
	channels    = 4
	lineRateBps = 100e9
	crossBuffer = 4 << 20 // shared bottleneck buffer (tail-drop)
)

// transferSpec is one closed-loop perftest workload: one sender and one
// receiver moving back-to-back 4 MiB messages into a window of
// receive regions, on the virtual clock.
type transferSpec struct {
	scheme string // "sr", "ec" or "adaptive"
	msgs   int    // messages per repetition
	rtt    time.Duration
	drop   float64
	// crossBps > 0 routes the flow over a netem bottleneck shared with
	// open-loop Poisson cross traffic of that load; otherwise the flow
	// gets a dedicated fabric link.
	crossBps float64
}

// buffers are the harness's staging memory, allocated once per
// workload and re-registered on every repetition's deployment.
type buffers struct {
	send    [window][]byte
	digest  [window]uint64 // wordDigest of each send region
	recv    []byte
	scratch [window][]byte // EC / adaptive parity staging; nil for SR
}

func (s transferSpec) newBuffers() *buffers {
	b := &buffers{recv: make([]byte, window*msgBytes)}
	for w := range b.send {
		b.send[w] = make([]byte, msgBytes)
	}
	var n int
	switch s.scheme {
	case "ec":
		n = s.relConfig().ECScratchBytes(chunkBytes, msgBytes)
	case "adaptive":
		n = reliability.AdaptiveScratchBytes(reliability.AdaptorConfig{}, chunkBytes, msgBytes)
	}
	if n > 0 {
		for w := range b.scratch {
			b.scratch[w] = make([]byte, n)
		}
	}
	return b
}

// fill writes the seed's payload pattern into the send buffers, digests
// them, and zeroes everything the receiver writes, so stale content
// from the previous repetition can never satisfy verification.
func (b *buffers) fill(seed int64) {
	for w := range b.send {
		fillPattern(b.send[w], seed, w)
		b.digest[w] = wordDigest(b.send[w])
	}
	clear(b.recv)
	for _, s := range b.scratch {
		clear(s)
	}
}

func (s transferSpec) coreConfig(clk clock.Clock) core.Config {
	return core.Config{
		MTU: mtu, ChunkBytes: chunkBytes, MaxMsgBytes: msgBytes,
		MsgIDBits: 10, PktOffsetBits: 18, UserImmBits: 4,
		Generations: 2, Channels: channels, CQDepth: 1 << 12,
		Clock: clk,
	}
}

func (s transferSpec) relConfig() reliability.Config {
	return reliability.Config{RTT: s.rtt, Alpha: 2, K: 32, M: 8, Code: "mds"}
}

// deployment is everything one repetition builds: the timed set-up.
type deployment struct {
	clk     *clock.Virtual
	sess    *reliability.Session
	topo    *netem.Topology
	gen     *netem.TrafficGen
	mr      *nicsim.MR
	scratch [window]*nicsim.MR
	ad      *reliability.Adaptor
	depth   *depthProbe // traced runs on a bottleneck only
}

// deploy builds the session (or bottleneck topology and flow), registers
// the receive and scratch regions and creates the adaptor. With tr set
// it attaches the flight recorder exactly as cmd/sdr-perftest does.
func (s transferSpec) deploy(seed int64, b *buffers, tr *telemetry.Trace) (*deployment, error) {
	d := &deployment{clk: clock.NewVirtual()}
	var rec *telemetry.Recorder
	if tr != nil {
		rec = tr.Cell(0)
		rec.SetLabel(s.scheme)
		tr.CellStart(0, clock.NowNanos(d.clk))
		rec.SetActorSource(d.clk.CurrentActorName)
		d.clk.SetEventLog(rec)
	}
	coreCfg, relCfg := s.coreConfig(d.clk), s.relConfig()
	oneWay := s.rtt / 2
	var err error
	if s.crossBps > 0 {
		d.topo = netem.New("perfbench", d.clk, seed)
		a, z := d.topo.AddNode("src"), d.topo.AddNode("dst")
		edge, err := d.topo.AddEdge(a, z, netem.EdgeConfig{
			DistanceKm:         oneWay.Seconds() / wan.PropagationSecPerKm,
			BandwidthBps:       lineRateBps,
			BufferBytes:        crossBuffer,
			MarkThresholdBytes: crossBuffer / 2,
			Loss:               netem.LossSpec{P: s.drop},
		})
		if err != nil {
			return nil, err
		}
		if rec != nil {
			d.topo.SetTelemetry(rec)
			d.depth = &depthProbe{next: rec}
			edge.Fwd.SetTelemetry(d.depth, rec.Track("src>dst/fwd"))
		}
		if d.sess, err = d.topo.NewFlow(a, z, coreCfg, relCfg); err != nil {
			_ = d.topo.ClosePools()
			return nil, err
		}
		d.gen, err = netem.NewTrafficGen(netem.TrafficConfig{
			Bps: s.crossBps, PacketBytes: mtu, Poisson: true, Seed: seed + 7777, Clock: d.clk,
		}, edge.Fwd.Port(discard{}))
		if err != nil {
			d.close()
			return nil, err
		}
	} else {
		link := func(seed int64) fabric.Config {
			return fabric.Config{Latency: oneWay, BandwidthBps: lineRateBps, DropProb: s.drop, Seed: seed, Clock: d.clk}
		}
		if d.sess, err = reliability.NewSession(coreCfg, relCfg, link(seed), link(seed+1000), oneWay); err != nil {
			return nil, err
		}
	}
	if rec != nil {
		d.sess.SetTelemetry(rec, s.scheme+"/A", s.scheme+"/B")
	}
	d.mr = d.sess.Pair.B.Ctx.RegMR(b.recv)
	for w, buf := range b.scratch {
		if buf != nil {
			d.scratch[w] = d.sess.Pair.B.Ctx.RegMR(buf)
		}
	}
	if s.scheme == "adaptive" {
		if d.ad, err = reliability.NewAdaptor(reliability.AdaptorConfig{}); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

func (d *deployment) close() {
	d.sess.Close()
	if d.topo != nil {
		_ = d.topo.ClosePools() // pooled deployments only; nothing to report
	}
}

// discard terminates the cross traffic after the bottleneck.
type discard struct{}

func (discard) Deliver(*nicsim.Packet) {}

// depthProbe forwards queue probes to the recorder and keeps the
// occupancy distribution of the bottleneck's forward queue.
type depthProbe struct {
	next  telemetry.Sink
	bytes stats.Sketch
}

func (p *depthProbe) Event(at int64, kind telemetry.EventKind, track int32, a0, a1, a2, a3 int64) {
	if kind == telemetry.EvEnqueue {
		p.bytes.Add(a0)
	}
	p.next.Event(at, kind, track, a0, a1, a2, a3)
}

// signature is a repetition's simulated outcome. The virtual clock
// makes it a pure function of the seed, so every repetition of one
// invocation, traced or not, must produce the same value.
type signature struct {
	SimNs                                    int64
	Completions                              uint64 // fold of per-message completion times
	Payload                                  uint64 // fold of every received region
	HostPkts                                 uint64 // delivered to either device
	RecvDevPkts                              uint64 // delivered to the receiving device
	DataSent, DataRecv, Duplicates, LateDisc uint64
	CTSSent                                  uint64
	Retransmits, Nacks, LateReAcks           uint64
	LadderSwitches                           uint64
	TailDrops, ECNMarked, CrossSent          uint64
}

// repResult is one repetition: set-up, fill, the timed transfer and
// what the flight recorder saw when attached.
type repResult struct {
	sig         signature
	completions []time.Duration // per message, in simulated time
	verified    int             // messages that arrived and matched the pattern
	err         error

	setup, fill, verify time.Duration
	wall                time.Duration // the transfer's host wall time, verify and probe excluded
	probe               time.Duration // host-speed probe passes, one per message; plain repetitions only
	passes              int
	heapPeak            uint64
	mallocs, gcCycles   uint64
	gcPause             time.Duration

	events [telemetryKinds]int // traced repetitions only
	retx   [3]int              // traced: retransmits by telemetry.Cause*
	depth  int64               // traced: p99 forward-queue occupancy, bytes
}

const telemetryKinds = int(telemetry.EvQuarantine) + 1

// faults let tests break a repetition on purpose; the zero value is
// the benchmark.
type faults struct {
	// corrupt damages message msg's received region before it is
	// verified.
	corrupt func(msg int, region []byte)
	// divert receives message msg into a spare region, so the stack
	// never writes the region that is verified.
	divert func(msg int) bool
}

// rep runs one repetition of n messages, with a pass of pr after each
// message when pr is set.
func (s transferSpec) rep(seed int64, n int, b *buffers, tr *telemetry.Trace, pr *probe, f faults) repResult {
	var r repResult
	t0 := time.Now()
	b.fill(seed)
	r.fill = time.Since(t0)

	runtime.GC() // set-up starts from a clean heap, like the extra set-ups in runTransfer
	t0 = time.Now()
	d, err := s.deploy(seed, b, tr)
	r.setup = time.Since(t0)
	if err != nil {
		r.err = fmt.Errorf("deploy: %w", err)
		return r
	}
	defer d.close()
	var spare *nicsim.MR
	if f.divert != nil {
		spare = d.sess.Pair.B.Ctx.RegMR(make([]byte, msgBytes))
	}

	// Collect the set-up's garbage now, so the timed region pays only
	// for the collections its own allocations cause.
	runtime.GC()
	// Heap objects, live or not yet swept, as of now: the live-heap
	// metric only changes when a GC cycle ends, and a repetition may
	// run none.
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	sampleHeap := func() {
		metrics.Read(heap)
		if v := heap[0].Value.Uint64(); v > r.heapPeak {
			r.heapPeak = v
		}
	}
	sampleHeap()
	r.completions = make([]time.Duration, 0, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var sendErr, recvErr error
	startSim := d.clk.Now()
	startWall := time.Now()
	if d.gen != nil {
		d.gen.Start()
	}
	clock.JoinNamed(d.clk,
		clock.NamedFunc{Name: "bench-send", Fn: func() {
			acfg := reliability.AdaptorConfig{}
			for i := 0; i < n && sendErr == nil; i++ {
				data := b.send[i%window]
				switch s.scheme {
				case "ec":
					sendErr = d.sess.A.WriteEC(data)
				case "adaptive":
					sendErr = d.sess.A.WriteAdaptive(acfg, data)
				default:
					sendErr = d.sess.A.WriteSR(data)
				}
				if sendErr != nil {
					sendErr = fmt.Errorf("send msg %d: %w", i, sendErr)
				}
			}
		}},
		clock.NamedFunc{Name: "bench-recv", Fn: func() {
			for i := 0; i < n; i++ {
				w := i % window
				off := w * msgBytes
				mr, at := d.mr, uint64(off)
				if f.divert != nil && f.divert(i) {
					mr, at = spare, 0
				}
				t := d.clk.Now()
				switch s.scheme {
				case "ec":
					recvErr = d.sess.B.ReceiveEC(mr, at, msgBytes, d.scratch[w])
				case "adaptive":
					recvErr = d.sess.B.ReceiveAdaptive(d.ad, mr, at, msgBytes, d.scratch[w])
				default:
					recvErr = d.sess.B.ReceiveSR(mr, at, msgBytes)
				}
				if recvErr != nil {
					recvErr = fmt.Errorf("receive msg %d: %w", i, recvErr)
					return
				}
				dur := d.clk.Since(t)
				r.completions = append(r.completions, dur)
				r.sig.Completions = fold(r.sig.Completions, uint64(dur))

				// The verify pauses the transfer's wall clock: under the
				// virtual clock's baton no other actor runs meanwhile.
				h := time.Now()
				region := b.recv[off : off+msgBytes]
				if f.corrupt != nil {
					f.corrupt(i, region)
				}
				// A region equal to its send buffer, which still holds
				// the fill pattern (checked below), folds in the digest
				// computed at fill time.
				if bytes.Equal(region, b.send[w]) {
					r.verified++
					r.sig.Payload = fold(r.sig.Payload, b.digest[w])
				} else {
					r.sig.Payload = fold(r.sig.Payload, wordDigest(region))
				}
				// Region w is written again by message i+window, with
				// the same bytes: zeroed, it can only pass then if the
				// stack really rewrites all of it.
				clear(region)
				sampleHeap()
				r.verify += time.Since(h)
				if pr != nil {
					r.probe += pr.pass()
					r.passes++
				}
			}
		}},
	)
	r.wall = time.Since(startWall) - r.verify - r.probe
	r.sig.SimNs = int64(d.clk.Since(startSim))
	if d.gen != nil {
		d.gen.Stop()
	}
	runtime.ReadMemStats(&after)
	r.mallocs = after.Mallocs - before.Mallocs
	r.gcCycles = uint64(after.NumGC - before.NumGC)
	r.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	if tr != nil {
		tr.CellFinish(0, clock.NowNanos(d.clk))
	}
	for w := range b.send {
		if !patternOK(b.send[w], seed, w) {
			// The stack wrote into a send buffer: nothing it delivered
			// can be trusted.
			r.verified = 0
		}
	}
	switch {
	case sendErr != nil:
		r.err = sendErr
	case recvErr != nil:
		r.err = recvErr
	}

	pair := d.sess.Pair
	a, z := pair.A.QP.Stats(), pair.B.QP.Stats()
	r.sig.RecvDevPkts = pair.B.Dev.RxPackets.Load()
	r.sig.HostPkts = pair.A.Dev.RxPackets.Load() + r.sig.RecvDevPkts
	r.sig.DataSent, r.sig.DataRecv = a.PacketsSent, z.PacketsReceived
	r.sig.Duplicates, r.sig.LateDisc, r.sig.CTSSent = z.Duplicates, z.LateDiscarded, z.CTSSent
	r.sig.Retransmits = d.sess.A.Retransmits.Load()
	r.sig.Nacks = d.sess.B.NacksSent.Load()
	r.sig.LateReAcks = d.sess.B.LateReAcks.Load()
	if d.ad != nil {
		r.sig.LadderSwitches = uint64(len(d.ad.Switches()))
	}
	if d.topo != nil {
		r.sig.TailDrops, r.sig.ECNMarked = d.topo.TailDrops(), d.topo.MarkedPackets()
	}
	if d.gen != nil {
		r.sig.CrossSent = d.gen.Sent()
	}
	if tr != nil {
		for _, ev := range tr.Cell(0).Events() {
			r.events[ev.Kind]++
			if ev.Kind == telemetry.EvRetransmit && ev.A1 >= 0 && ev.A1 < int64(len(r.retx)) {
				r.retx[ev.A1]++
			}
		}
		if d.depth != nil {
			r.depth = d.depth.bytes.Quantile(0.99)
		}
	}
	return r
}

// fold is the harness's word-wide digest step (FNV-1a over 64-bit
// words): deterministic and cheap enough to run over every payload.
func fold(h, word uint64) uint64 {
	if h == 0 {
		h = 0xcbf29ce484222325
	}
	return (h ^ word) * 0x100000001b3
}

// patternWord is word i of window region w's payload: the splitmix64
// finalizer of a Weyl sequence: words are independent of each other
// and distinct across regions and seeds.
func patternWord(seed int64, w, i int) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(w+1)<<56 + uint64(i)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// fillPattern writes region w's payload; len(buf) is a multiple of 8.
func fillPattern(buf []byte, seed int64, w int) {
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], patternWord(seed, w, i/8))
	}
}

// patternOK reports whether buf holds region w's fill pattern.
func patternOK(buf []byte, seed int64, w int) bool {
	for i := 0; i+8 <= len(buf); i += 8 {
		if binary.LittleEndian.Uint64(buf[i:]) != patternWord(seed, w, i/8) {
			return false
		}
	}
	return true
}

// wordDigest folds every 64-bit word of buf. Four independent
// lanes keep the multiply chain off the critical path.
func wordDigest(buf []byte) uint64 {
	var l0, l1, l2, l3 uint64
	for i := 0; i+32 <= len(buf); i += 32 {
		l0 = fold(l0, binary.LittleEndian.Uint64(buf[i:]))
		l1 = fold(l1, binary.LittleEndian.Uint64(buf[i+8:]))
		l2 = fold(l2, binary.LittleEndian.Uint64(buf[i+16:]))
		l3 = fold(l3, binary.LittleEndian.Uint64(buf[i+24:]))
	}
	return fold(fold(fold(fold(0, l0), l1), l2), l3)
}
