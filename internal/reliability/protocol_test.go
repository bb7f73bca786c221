package reliability

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"sdrrdma/internal/clock"
)

func TestParseProtocol(t *testing.T) {
	for _, name := range []string{"sr", "sr-nack", "ec", "adaptive"} {
		p, err := ParseProtocol(name)
		if err != nil {
			t.Fatalf("ParseProtocol(%q): %v", name, err)
		}
		if got := p.String(); got != name {
			t.Errorf("ParseProtocol(%q).String() = %q", name, got)
		}
	}
	if p := ProtoSR.WithAdaptor(AdaptorConfig{SegmentChunks: 8}); p != ProtoSR {
		t.Errorf("WithAdaptor changed a non-adaptive protocol: %v", p)
	}
	for _, name := range []string{"rc-gbn", "", "SR"} {
		_, err := ParseProtocol(name)
		if err == nil {
			t.Fatalf("ParseProtocol(%q) accepted", name)
		}
		for _, valid := range []string{"sr", "sr-nack", "ec", "adaptive"} {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("ParseProtocol(%q) error %q does not list %q", name, err, valid)
			}
		}
	}
}

// A receive returns at its completion instant; the final-ACK linger
// runs in the background (retire.go). The sender completes only when
// that final ACK reaches it, half an RTT later at the earliest, so on
// every protocol the receiver must return strictly before the sender
// — lossless or lossy. A receiver that blocked through the linger
// (Linger = RTO = 3·RTT here) would return ~2.5 RTT after its sender.
func TestReceiverReturnsBeforeSender(t *testing.T) {
	const size = 96 << 10
	for _, name := range []string{"sr", "sr-nack", "ec", "adaptive"} {
		for _, loss := range []float64{0, 0.03} {
			p, err := ParseProtocol(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := testRelCfg()
			cfg.Linger = cfg.RTO()
			s, vc := newVirtualSession(t, cfg, loss, 21)
			data := pattern(size, 21)
			recvBuf := make([]byte, size)
			mr := s.Pair.B.Ctx.RegMR(recvBuf)
			scratch := s.ScratchMR(p, size)
			start := vc.Now()
			var sendErr, recvErr error
			var tSend, tRecv time.Duration
			clock.Join(vc,
				func() {
					sendErr = p.Write(s.A, data)
					tSend = vc.Since(start)
				},
				func() {
					recvErr = p.Receive(s.B, mr, 0, size, scratch)
					tRecv = vc.Since(start)
				})
			if sendErr != nil || recvErr != nil {
				t.Fatalf("%s loss=%g: send %v, recv %v", p, loss, sendErr, recvErr)
			}
			if !bytes.Equal(recvBuf, data) {
				t.Fatalf("%s loss=%g: data corrupted", p, loss)
			}
			if tRecv >= tSend {
				t.Errorf("%s loss=%g: receiver returned at %v, not before the sender (%v)",
					p, loss, tRecv, tSend)
			}
		}
	}
}
