// Package session implements the elastic session fabric: a pool of
// fully built reliability deployments — devices, SDR contexts and QPs,
// control planes with their posted receive slabs — leased to
// individual flows and reset on release, the way clock.Lanes leases
// virtual engines to sweep cells.
//
// Construction is the expensive half of a deployment: per-channel CQ
// rings, the root-key retire pass, DPA workers, and the control
// planes' receive slabs. A Pool pays it once per deployment; a lease
// costs only the per-session rebind — connecting the QPs over the
// flow's link and OOB channel, re-attaching the control planes, and
// fresh reliability endpoints. That is what lets one netem dumbbell
// host thousands of sequential and hundreds of live concurrent flows
// without rebuilding the world per flow.
//
// Stale traffic from a previous lease is harmless by construction:
// message sequence numbers, UC PSNs and control opIDs are monotonic
// over the deployment lifetime (core.Pair.Reset deliberately preserves
// them), so late data packets land in NULL-retired root-table slots
// and late control datagrams route to unregistered operation IDs.
//
// Determinism: a pool is deterministic state. The first lease of each
// deployment is exactly a cold build, and later leases reset all
// protocol-visible state, so a figure cell that leases instead of
// building stays byte-identical per seed. Even a pool shared across
// concurrently running sweep cells — where lease order depends on
// worker scheduling — cannot leak into figure output: the only state
// that survives a reset is the monotonic sequence space (PSNs, message
// seqs, control opIDs), whose absolute values affect no timing and no
// counter, and LeaseLinkedOn re-homes each lease onto the cell's own
// clock. Cells on different lanes may draw different deployments on
// different runs and still produce identical bytes.
package session

import (
	"fmt"
	"sync"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/core"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/nicsim"
	"sdrrdma/internal/reliability"
	"sdrrdma/internal/telemetry"
)

// Config parameterizes a Pool.
type Config struct {
	// Core is the SDR configuration every pooled deployment is built
	// with. Core.Clock must be set: the pool's deployments all run on
	// it, and pooling across clocks would leak state between runs.
	Core core.Config
	// Name prefixes pooled device names (diagnostics only; defaults to
	// "session").
	Name string
}

// Pool leases reusable reliability deployments. All methods are safe
// for concurrent use; under a virtual clock, concurrent use only
// happens within one serialized simulation anyway.
type Pool struct {
	cfg Config

	mu          sync.Mutex
	free        []*Deployment
	built       int // deployments ever constructed
	leased      int // deployments currently out
	quarantined int // deployments retired from circulation
	closed      bool

	// sink, when non-nil, receives cold-build/lease/rebind/release
	// events on track (guarded by mu like the counters it narrates).
	sink  telemetry.Sink
	track int32

	// Quarantined counts deployments permanently retired because a
	// failure left their state untrusted (Deployment.Quarantine). It
	// counts whether or not a recorder is attached; register it via
	// telemetry.Recorder.RegisterCounter to surface it in summaries.
	Quarantined telemetry.Counter
}

// SetTelemetry attaches a telemetry sink: the pool reports deployment
// cold builds, leases, rebinds and releases as instant events on
// track, stamped with the pool clock. Pass nil to detach.
func (p *Pool) SetTelemetry(sink telemetry.Sink, track int32) {
	p.mu.Lock()
	p.sink, p.track = sink, track
	p.mu.Unlock()
}

// probe emits one pool-lifecycle event when a sink is attached.
func (p *Pool) probe(sink telemetry.Sink, track int32, kind telemetry.EventKind, a0 int64) {
	if sink == nil {
		return
	}
	sink.Event(clock.NowNanos(p.cfg.Core.Clock), kind, track, a0, 0, 0, 0)
}

// NewPool validates cfg and returns an empty pool; deployments are
// built lazily on first Acquire.
func NewPool(cfg Config) (*Pool, error) {
	if cfg.Core.Clock == nil {
		return nil, fmt.Errorf("session: pool requires an explicit Core.Clock")
	}
	if cfg.Name == "" {
		cfg.Name = "session"
	}
	return &Pool{cfg: cfg}, nil
}

// Deployment is one pooled build: two devices with their SDR pair and
// control planes. Between Acquire and Bind the caller terminates its
// delivery chains at DevA/DevB; Bind then produces the lease's
// session, whose Close releases the deployment back to the pool.
type Deployment struct {
	pool     *Pool
	pair     *core.Pair
	cpA, cpB *reliability.ControlPlane
	leased   bool
	// releaseFn and quarantineFn cache the method values so per-lease
	// Bind does not allocate fresh closures.
	releaseFn    func()
	quarantineFn func()
	// link and oob are the pooled fabric envelopes of the LeaseLinked
	// path: built on the deployment's first linked lease and
	// Reconfigure/Reset per lease afterwards, so link churn costs no
	// Direction, rng or OOB construction.
	link *fabric.Link
	oob  *fabric.OOB
}

// Acquire leases a deployment: a reset one off the free list, or a
// fresh build when the pool is empty. Release it by closing the
// session obtained from Bind.
func (p *Pool) Acquire() (*Deployment, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("session: Acquire on closed pool")
	}
	if n := len(p.free); n > 0 {
		d := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		d.leased = true
		p.leased++
		sink, track, leased := p.sink, p.track, p.leased
		p.mu.Unlock()
		p.probe(sink, track, telemetry.EvLease, int64(leased))
		return d, nil
	}
	idx := p.built
	p.built++
	p.leased++
	sink, track := p.sink, p.track
	p.mu.Unlock()

	d, err := p.build(idx)
	if err != nil {
		p.mu.Lock()
		p.built--
		p.leased--
		p.mu.Unlock()
		return nil, err
	}
	d.leased = true
	p.probe(sink, track, telemetry.EvColdBuild, int64(idx+1))
	return d, nil
}

// build constructs one deployment: the cold path every lease of it
// afterwards amortizes.
func (p *Pool) build(idx int) (*Deployment, error) {
	devA := nicsim.NewDevice(fmt.Sprintf("%s/pool%da", p.cfg.Name, idx))
	devB := nicsim.NewDevice(fmt.Sprintf("%s/pool%db", p.cfg.Name, idx))
	pair, err := core.NewPairDetached(p.cfg.Core, devA, devB)
	if err != nil {
		return nil, fmt.Errorf("session: deployment %d: %w", idx, err)
	}
	mtu := pair.A.Ctx.Config().MTU
	clk := pair.A.Ctx.Clock()
	// Control planes are built detached (nil wire) and re-attached per
	// lease; their receive rings survive across leases.
	cpA := reliability.NewControlPlane(devA, nil, mtu, clk)
	cpB := reliability.NewControlPlane(devB, nil, mtu, clk)
	// Per-flow registrations (staging buffers, parity scratch) must not
	// accumulate across leases; track them so Reset deregisters.
	pair.A.Ctx.SetMRTracking(true)
	pair.B.Ctx.SetMRTracking(true)
	d := &Deployment{pool: p, pair: pair, cpA: cpA, cpB: cpB}
	d.releaseFn = d.release
	d.quarantineFn = d.quarantineLeased
	return d, nil
}

// DevA returns the deployment's A-side device — the terminal Deliverer
// for the lease's B→A delivery chain.
func (d *Deployment) DevA() *nicsim.Device { return d.pair.A.Dev }

// DevB returns the B-side device (terminal for the A→B chain).
func (d *Deployment) DevB() *nicsim.Device { return d.pair.B.Dev }

// Bind wires the leased deployment across link and oob and returns the
// lease's reliability session: QPs reconnect over the new data path,
// control planes re-attach, endpoints (with fresh re-ACK tables) layer
// on top. Closing the session resets the deployment and releases it
// back to the pool.
func (d *Deployment) Bind(link *fabric.Link, oob *fabric.OOB, relCfg reliability.Config) (*reliability.Session, error) {
	if !d.leased {
		return nil, fmt.Errorf("session: Bind on a deployment that is not leased")
	}
	if err := relCfg.WithDefaults().Validate(); err != nil {
		return nil, err
	}
	if err := d.pair.Bind(link, oob); err != nil {
		return nil, err
	}
	d.cpA.Rebind(link.AB)
	d.cpB.Rebind(link.BA)
	p := d.pool
	p.mu.Lock()
	sink, track := p.sink, p.track
	p.mu.Unlock()
	p.probe(sink, track, telemetry.EvRebind, 0)
	s := reliability.NewSessionOnCPs(d.pair, d.cpA, d.cpB, relCfg)
	s.SetRelease(d.releaseFn)
	s.SetQuarantine(d.quarantineFn)
	return s, nil
}

// release resets the deployment's per-session state and returns it to
// the pool (Session.Close calls it after flushing pending retires).
// Releasing a deployment that is not leased panics: it means two
// owners believed they held the lease.
func (d *Deployment) release() {
	p := d.pool
	p.mu.Lock()
	if !d.leased {
		p.mu.Unlock()
		panic("session: deployment released twice")
	}
	d.leased = false
	p.leased--
	d.pair.Reset()
	closed := p.closed
	if !closed {
		p.free = append(p.free, d)
	}
	sink, track, leased := p.sink, p.track, p.leased
	p.mu.Unlock()
	if closed {
		d.teardown()
		return
	}
	p.probe(sink, track, telemetry.EvRelease, int64(leased))
}

// Release returns an acquired deployment to the pool without a Bind —
// the error-path counterpart of closing the bound session. Releasing a
// deployment whose session was already closed panics (double release).
//
// Idempotency lives one layer up: reliability.Session.Close and
// .Quarantine are CAS-guarded, so an abort path racing a deferred
// Close fires this hook at most once per lease. A second explicit
// Release here means two owners believed they held the lease — a
// genuine double-free, and it panics.
func (d *Deployment) Release() { d.release() }

// Quarantine permanently retires a leased deployment from circulation:
// its resources are torn down, it never returns to the free list, and
// the pool's quarantine health counter advances. Use it when a failure
// (abort mid-transfer, suspected state corruption) leaves the
// deployment untrustworthy — a quarantined lease can never poison a
// later flow. Quarantining an unleased deployment panics.
func (d *Deployment) Quarantine() { d.quarantineLeased() }

// quarantineLeased is the Session.Quarantine hook body.
func (d *Deployment) quarantineLeased() {
	p := d.pool
	p.mu.Lock()
	if !d.leased {
		p.mu.Unlock()
		panic("session: deployment quarantined while not leased")
	}
	d.leased = false
	p.leased--
	p.quarantined++
	q := p.quarantined
	sink, track := p.sink, p.track
	p.mu.Unlock()
	p.Quarantined.Add(1)
	p.probe(sink, track, telemetry.EvQuarantine, int64(q))
	d.teardown()
}

// teardown permanently destroys the deployment's resources.
func (d *Deployment) teardown() {
	d.cpA.Close()
	d.cpB.Close()
	d.pair.Close()
}

// Rehome moves the deployment's clock domain — both SDR contexts and
// both control planes — onto clk (nil = shared real clock). It is the
// mechanism that lets a pool built on one template clock serve sweep
// lanes running their own virtual engines: deployments carry no other
// clock state between leases, and the per-lease reset already erases
// everything output-visible, so a re-homed lease behaves exactly like
// a cold build on clk. Only call between leases.
func (d *Deployment) Rehome(clk clock.Clock) {
	d.pair.A.Ctx.SetClock(clk)
	d.pair.B.Ctx.SetClock(clk)
	d.cpA.SetClock(clk)
	d.cpB.SetClock(clk)
}

// linked returns the deployment's pooled fabric envelopes, built on
// first use and re-parameterized in place on every later lease.
func (d *Deployment) linked(clk clock.Clock, ab, ba fabric.Config, oobLatency time.Duration) (*fabric.Link, *fabric.OOB) {
	if ab.Clock == nil {
		ab.Clock = clk
	}
	if ba.Clock == nil {
		ba.Clock = clk
	}
	if d.link == nil {
		d.link = fabric.NewLink(d.DevA(), d.DevB(), ab, ba)
		d.oob = fabric.NewOOB(clk, oobLatency)
		return d.link, d.oob
	}
	d.link.AB.Reconfigure(ab)
	d.link.BA.Reconfigure(ba)
	d.oob.Reset(clk, oobLatency)
	return d.link, d.oob
}

// LeaseLinked acquires a deployment and wires it across a standalone
// fabric link with per-direction impairment configs ab/ba and an OOB
// channel of oobLatency — the pooled counterpart of
// reliability.NewSession, for harnesses whose data path is a single
// link rather than a netem route. The link and OOB envelopes are
// themselves pooled per deployment, so steady-state churn builds no
// fabric objects at all.
func (p *Pool) LeaseLinked(relCfg reliability.Config, ab, ba fabric.Config, oobLatency time.Duration) (*reliability.Session, error) {
	return p.LeaseLinkedOn(nil, relCfg, ab, ba, oobLatency)
}

// LeaseLinkedOn is LeaseLinked with the deployment re-homed onto clk
// for the duration of the lease (nil = the pool's own Core.Clock).
// Sweep cells running on clock.Lanes call it with their lane's engine:
// the pool cold-builds each deployment once, and every later cell —
// on whatever lane — pays only the rebind. The preserved monotonic
// state (PSNs, message seqs, control opIDs) is timing-transparent and
// every counter resets per lease, so cells stay byte-identical per
// seed no matter which deployment they draw.
func (p *Pool) LeaseLinkedOn(clk clock.Clock, relCfg reliability.Config, ab, ba fabric.Config, oobLatency time.Duration) (*reliability.Session, error) {
	d, err := p.Acquire()
	if err != nil {
		return nil, err
	}
	if clk == nil {
		clk = p.cfg.Core.Clock
	}
	d.Rehome(clk)
	link, oob := d.linked(clk, ab, ba, oobLatency)
	s, err := d.Bind(link, oob, relCfg)
	if err != nil {
		d.release()
		return nil, err
	}
	return s, nil
}

// Stats reports how many deployments the pool has ever built and how
// many are currently leased. built bounds steady-state memory; leased
// > 0 at teardown time is a leak.
func (p *Pool) Stats() (built, leased int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.built, p.leased
}

// Health is Stats plus the quarantine count — the pool's failure
// ledger. built - quarantined deployments remain in circulation;
// quarantined ones were retired after a failure rather than risking a
// poisoned re-lease.
func (p *Pool) Health() (built, leased, quarantined int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.built, p.leased, p.quarantined
}

// Close tears down every free deployment and marks the pool closed
// (further Acquires fail; outstanding leases tear their deployments
// down on release). It returns an error when leases are still
// outstanding — the leak detector pool-lifecycle tests assert on.
func (p *Pool) Close() error {
	p.mu.Lock()
	p.closed = true
	free := p.free
	p.free = nil
	leaked := p.leased
	p.mu.Unlock()
	for _, d := range free {
		d.teardown()
	}
	if leaked > 0 {
		return fmt.Errorf("session: %d deployment(s) still leased at pool close", leaked)
	}
	return nil
}
