// Package reliability implements the paper's example reliability
// layers on top of the SDR partial-completion bitmap (§4). A parsed
// Protocol names the scheme and dispatches one Write and one Receive:
//
//   - "sr": Selective Repeat with per-chunk RTO retransmission;
//   - "sr-nack": SR plus fast retransmission of holes behind the
//     selective-ACK frontier;
//   - "ec": erasure-coded submessages with an SR fallback on NACK;
//   - "adaptive": the scheme choice made dynamic — one transfer is
//     split into segments, the receiver's Adaptor plans each segment's
//     rung on an SR↔EC ladder from per-segment loss, duplicate and ECN
//     signals (with hysteresis and a dwell floor), and the sender
//     follows the plans mid-flight: the "software-defined" half of the
//     paper's title.
//
// Each engine (sr.go, ec.go, adaptive.go) is a repair policy over one
// set of shared building blocks: SR chunk tracking (selective-ACK
// apply, resend, the backoff RTO sweep), the SR ACK built from a chunk
// bitmap, the EC submessage codec (encode with virtual-zero and tail
// padding, in-place recovery), the missing-chunk NACK, and one
// receiver finish path (final ACK, background linger and retire) and
// abandon path. Every protocol runs over two connections, exactly as
// in §4.1:
//
//   - a data-path SDR QP for zero-copy chunk delivery, and
//   - a control-path UD QP for ACK/NACK exchange — control packets
//     traverse the same lossy fabric and can be dropped, so the
//     protocols must tolerate ACK loss.
package reliability

import (
	"fmt"
	"time"

	"sdrrdma/internal/ec"
)

// Config tunes the reliability protocols.
type Config struct {
	// RTT is the estimated network round-trip time.
	RTT time.Duration
	// Alpha sets RTO = RTT + Alpha·RTT (§4.1.1; the paper's "SR RTO"
	// scenario uses Alpha = 2, i.e. RTO = 3·RTT).
	Alpha float64
	// PollInterval is the receiver's bitmap polling cadence.
	PollInterval time.Duration
	// AckInterval is the receiver's ACK transmission cadence.
	AckInterval time.Duration
	// Linger is how long the receiver keeps re-sending its final ACK
	// after completion, protecting against ACK loss before it retires
	// the receive slot.
	Linger time.Duration
	// GlobalTimeout aborts an operation outright (§4.1.2's deadlock
	// guard).
	GlobalTimeout time.Duration
	// NoLateReAck disables the receiver's late-data re-ACK of recently
	// retired slots (reack.go). With it set, a loss burst on the
	// control path that outlives the final-ACK linger strands the
	// sender until GlobalTimeout — the PR-4 pathology the re-ACK
	// exists to fix; the flag is for regression tests and A/B
	// measurements of that behaviour.
	NoLateReAck bool

	// K and M are the erasure-code split (data and parity chunks per
	// submessage; paper's balanced choice is 32, 8).
	K, M int
	// Code selects "mds" or "xor".
	Code string
	// Beta sets the EC fallback timeout slack: FTO = T_inj_estimate +
	// Beta·RTT (§4.1.2 halves the SR coefficient: Beta = Alpha/2).
	Beta float64
	// InjectionEstimate approximates the time to inject one full
	// message (data+parity) for the FTO computation. Zero derives a
	// loose default from RTT.
	InjectionEstimate time.Duration
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.RTT == 0 {
		c.RTT = 4 * time.Millisecond
	}
	if c.Alpha == 0 {
		c.Alpha = 2
	}
	if c.PollInterval == 0 {
		c.PollInterval = c.RTT / 8
	}
	if c.AckInterval == 0 {
		c.AckInterval = c.RTT / 4
	}
	if c.Linger == 0 {
		c.Linger = c.RTO()
	}
	if c.GlobalTimeout == 0 {
		c.GlobalTimeout = 100 * c.RTO()
	}
	if c.K == 0 {
		c.K = 32
	}
	if c.M == 0 {
		c.M = 8
	}
	if c.Code == "" {
		c.Code = "mds"
	}
	if c.Beta == 0 {
		c.Beta = c.Alpha / 2
	}
	return c
}

// Validate rejects configurations that cannot make progress, mirroring
// wan.NewGilbertElliottChecked's fail-fast stance: a GlobalTimeout at
// or below 2·RTT expires before a single request/response round trip
// can complete, so every transfer would die with ErrGlobalTimeout no
// matter how healthy the network is. Call after WithDefaults.
func (c Config) Validate() error {
	if c.RTT < 0 {
		return fmt.Errorf("reliability: RTT %v < 0", c.RTT)
	}
	if c.GlobalTimeout <= 2*c.RTT {
		return fmt.Errorf("reliability: GlobalTimeout %v <= 2*RTT (%v) — no transfer can complete",
			c.GlobalTimeout, 2*c.RTT)
	}
	return nil
}

// RTO returns the Selective Repeat retransmission timeout
// RTT + Alpha·RTT.
func (c Config) RTO() time.Duration {
	return time.Duration(float64(c.RTT) * (1 + c.Alpha))
}

// FTO returns the EC fallback timeout (§4.1.2).
func (c Config) FTO() time.Duration {
	inj := c.InjectionEstimate
	if inj == 0 {
		inj = c.RTT / 2
	}
	return inj + time.Duration(float64(c.RTT)*c.Beta)
}

// NewCode instantiates the configured erasure code.
func (c Config) NewCode() (ec.Code, error) {
	switch c.Code {
	case "mds":
		return ec.NewRS(c.K, c.M)
	case "xor":
		return ec.NewXOR(c.K, c.M)
	default:
		return nil, fmt.Errorf("reliability: unknown code %q", c.Code)
	}
}
