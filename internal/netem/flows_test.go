package netem

import (
	"bytes"
	"fmt"
	"testing"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/reliability"
)

// smokeDumbbell builds the thousand-flow test shape: one leaf pair
// around a lossless bottleneck.
func smokeDumbbell(t *testing.T, clk clock.Clock, pairs int) *DumbbellTopo {
	t.Helper()
	access := EdgeConfig{DistanceKm: 50, BandwidthBps: 10e9, BufferBytes: 1 << 20}
	bottleneck := EdgeConfig{DistanceKm: 800, BandwidthBps: 5e9, BufferBytes: 1 << 20}
	d, err := Dumbbell(clk, pairs, access, bottleneck, 7)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runSmokeTransfer pushes size bytes across an open flow and verifies
// delivery.
func runSmokeTransfer(t *testing.T, clk clock.Clock, s *reliability.Session, size int, tag byte) {
	t.Helper()
	data := make([]byte, size)
	for i := range data {
		data[i] = tag ^ byte(i*13)
	}
	recvBuf := make([]byte, size)
	mr := s.Pair.B.Ctx.RegMR(recvBuf)
	var sendErr, recvErr error
	clock.Join(clk,
		func() { sendErr = s.A.WriteSR(data) },
		func() { recvErr = s.B.ReceiveSR(mr, 0, size) },
	)
	if sendErr != nil || recvErr != nil {
		t.Fatalf("transfer failed: send=%v recv=%v", sendErr, recvErr)
	}
	if !bytes.Equal(recvBuf, data) {
		t.Fatal("data corrupted")
	}
}

// A dumbbell must sustain a thousand sequential flows on ONE pooled
// deployment: every NewFlow after the first is a lease of the reset
// deployment, so the steady-state cost of flow churn is a rebind, not
// a rebuild. (-short trims the count; the full thousand runs in the
// tier-1 suite.)
func TestDumbbellThousandSequentialFlows(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 100
	}
	clk := clock.NewVirtual()
	d := smokeDumbbell(t, clk, 1)
	for i := 0; i < n; i++ {
		s, err := d.NewFlow(d.Left[0], d.Right[0], flowCoreCfg(), flowRelCfg())
		if err != nil {
			t.Fatalf("flow %d: %v", i, err)
		}
		runSmokeTransfer(t, clk, s, 16<<10, byte(i))
		s.Close()
	}
	built, leased := d.PoolStats()
	if built != 1 {
		t.Fatalf("%d sequential flows built %d deployments, want 1 (pooling broken)", n, built)
	}
	if leased != 0 {
		t.Fatalf("%d deployments still leased after all flows closed", leased)
	}
	if err := d.ClosePools(); err != nil {
		t.Fatalf("ClosePools: %v", err)
	}
}

// A hundred concurrent flows between the same leaf pair all cross the
// shared bottleneck at once: each holds its own pooled deployment, and
// a second wave after closing reuses all of them (built stays flat).
func TestDumbbellHundredConcurrentFlows(t *testing.T) {
	const flows = 100
	clk := clock.NewVirtual()
	d := smokeDumbbell(t, clk, 1)

	wave := func(tag byte) {
		sessions := make([]*reliability.Session, flows)
		for i := range sessions {
			s, err := d.NewFlow(d.Left[0], d.Right[0], flowCoreCfg(), flowRelCfg())
			if err != nil {
				t.Fatalf("flow %d: %v", i, err)
			}
			sessions[i] = s
		}
		if _, leased := d.PoolStats(); leased != flows {
			t.Fatalf("%d flows open but %d deployments leased", flows, leased)
		}
		const size = 8 << 10
		datas := make([][]byte, flows)
		recvs := make([][]byte, flows)
		actors := make([]clock.NamedFunc, 0, 2*flows)
		errs := make([]error, 2*flows)
		for i, s := range sessions {
			i, s := i, s
			datas[i] = make([]byte, size)
			for j := range datas[i] {
				datas[i][j] = tag ^ byte(i) ^ byte(j*13)
			}
			recvs[i] = make([]byte, size)
			mr := s.Pair.B.Ctx.RegMR(recvs[i])
			actors = append(actors,
				clock.NamedFunc{Name: fmt.Sprintf("flow%d/tx", i), Fn: func() {
					errs[2*i] = s.A.WriteSR(datas[i])
				}},
				clock.NamedFunc{Name: fmt.Sprintf("flow%d/rx", i), Fn: func() {
					errs[2*i+1] = s.B.ReceiveSR(mr, 0, size)
				}})
		}
		clock.JoinNamed(clk, actors...)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("concurrent flow actor %d: %v", i, err)
			}
		}
		for i := range sessions {
			if !bytes.Equal(recvs[i], datas[i]) {
				t.Fatalf("flow %d corrupted under bottleneck sharing", i)
			}
			sessions[i].Close()
		}
	}

	wave(0x00)
	built, leased := d.PoolStats()
	if built != flows || leased != 0 {
		t.Fatalf("after wave 1: built=%d leased=%d, want %d/0", built, leased, flows)
	}
	wave(0xA5) // must reuse, not rebuild
	if built, _ = d.PoolStats(); built != flows {
		t.Fatalf("wave 2 built %d deployments total, want %d (no reuse)", built, flows)
	}
	if err := d.ClosePools(); err != nil {
		t.Fatalf("ClosePools: %v", err)
	}
}
