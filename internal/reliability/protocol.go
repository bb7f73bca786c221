package reliability

import (
	"fmt"
	"slices"
	"strings"

	"sdrrdma/internal/nicsim"
)

// Protocol is a parsed reliability scheme: the one value a harness
// holds instead of switching on scheme names. It owns the choices
// that differ between schemes — SR's NACK fast retransmit, the parity
// scratch the receiver needs, and the adaptive ladder configuration —
// and dispatches Write and Receive to the engine. Protocols are
// immutable values; the zero value is ProtoSR.
type Protocol struct {
	kind protoKind
	// acfg configures the adaptive engine (ProtoAdaptive only); nil
	// means the default AdaptorConfig. The pointee is never mutated,
	// which keeps Protocol values comparable and immutable.
	acfg *AdaptorConfig
}

type protoKind uint8

const (
	protoSR protoKind = iota
	protoSRNACK
	protoEC
	protoAdaptive
)

// protoNames are the names ParseProtocol accepts, indexed by kind.
var protoNames = [...]string{"sr", "sr-nack", "ec", "adaptive"}

// The four protocols, in the package comment's terms. ProtoAdaptive
// runs the default AdaptorConfig unless set with WithAdaptor.
var (
	ProtoSR       = Protocol{kind: protoSR}
	ProtoSRNACK   = Protocol{kind: protoSRNACK}
	ProtoEC       = Protocol{kind: protoEC}
	ProtoAdaptive = Protocol{kind: protoAdaptive}
)

// ParseProtocol returns the protocol named "sr", "sr-nack", "ec" or
// "adaptive". Names are case-sensitive; anything else is an error
// listing the valid names.
func ParseProtocol(name string) (Protocol, error) {
	for k, n := range protoNames {
		if n == name {
			return Protocol{kind: protoKind(k)}, nil
		}
	}
	return Protocol{}, fmt.Errorf("reliability: unknown protocol %q (valid: %s)",
		name, strings.Join(protoNames[:], ", "))
}

// String returns the protocol's name, the one ParseProtocol accepts.
func (p Protocol) String() string { return protoNames[p.kind] }

// WithAdaptor returns p with the adaptive engine configured by acfg:
// segment size, window and ladder. Other protocols are returned
// unchanged.
func (p Protocol) WithAdaptor(acfg AdaptorConfig) Protocol {
	if p.kind != protoAdaptive {
		return p
	}
	acfg.Ladder = slices.Clone(acfg.Ladder)
	p.acfg = &acfg
	return p
}

// adaptorConfig returns the adaptive engine's configuration.
func (p Protocol) adaptorConfig() AdaptorConfig {
	if p.acfg == nil {
		return AdaptorConfig{}
	}
	return *p.acfg
}

// ScratchBytes returns the parity scratch a receive of msgBytes on e
// needs: 0 for SR, Config.ECScratchBytes for EC, AdaptiveScratchBytes
// for adaptive.
func (p Protocol) ScratchBytes(e *Endpoint, msgBytes int) int {
	chunkBytes := e.QP.Config().ChunkBytes
	switch p.kind {
	case protoEC:
		return e.Cfg.ECScratchBytes(chunkBytes, msgBytes)
	case protoAdaptive:
		return AdaptiveScratchBytes(p.adaptorConfig(), chunkBytes, msgBytes)
	}
	return 0
}

// Write reliably writes data from e under p.
func (p Protocol) Write(e *Endpoint, data []byte) error {
	switch p.kind {
	case protoSRNACK:
		return e.writeSR(data, true)
	case protoEC:
		return e.WriteEC(data)
	case protoAdaptive:
		return e.WriteAdaptive(p.adaptorConfig(), data)
	}
	return e.WriteSR(data)
}

// Receive receives one Write under p into mr[offset:offset+size] on e.
// scratch holds parity and must span p.ScratchBytes(e, size) bytes; it
// may be nil for SR. Adaptive receives drive the endpoint's Adaptor,
// created from p's AdaptorConfig on the first one.
func (p Protocol) Receive(e *Endpoint, mr *nicsim.MR, offset uint64, size int, scratch *nicsim.MR) error {
	switch p.kind {
	case protoEC:
		return e.ReceiveEC(mr, offset, size, scratch)
	case protoAdaptive:
		e.opMu.Lock()
		defer e.opMu.Unlock()
		if e.ad == nil {
			ad, err := NewAdaptor(p.adaptorConfig())
			if err != nil {
				return err
			}
			e.ad = ad
		}
		return e.receiveAdaptive(e.ad, mr, offset, size, scratch)
	}
	return e.ReceiveSR(mr, offset, size)
}

// Adaptor returns the adaptor the endpoint's ProtoAdaptive receives
// drive, nil before the first one. Read it once those receives have
// returned.
func (e *Endpoint) Adaptor() *Adaptor { return e.ad }
