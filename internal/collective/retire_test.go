package collective

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/reliability"
)

// The ring-4 allreduce figure scenario runs its 2N−2 dependent stages
// with the final-ACK linger in the background (reliability/retire.go):
// each receiver posts its next stage's buffer at the completion
// instant. That must not cost correctness — under 3% loss the
// reduction still equals the exact element-wise sum of its
// integer-valued inputs. (The timing half of the contract, receivers
// returning before their senders, is TestReceiverReturnsBeforeSender
// in package reliability.)
func TestRing4AllreduceAsyncRetireFigure(t *testing.T) {
	vc := clock.NewVirtual()
	ring, err := BuildFunctionalRing(4, funcCoreCfg(vc), funcRelCfg(),
		fabric.Config{Latency: time.Millisecond, DropProb: 0.03, Seed: 42, Clock: vc},
		time.Millisecond, 4096*8)
	if err != nil {
		t.Fatal(err)
	}
	defer ring.Close()

	const n, vlen = 4, 4096
	rng := rand.New(rand.NewSource(7))
	inputs := make([][]float64, n)
	want := make([]float64, vlen)
	for i := range inputs {
		inputs[i] = make([]float64, vlen)
		for j := range inputs[i] {
			inputs[i][j] = math.Round(rng.Float64() * 1000)
			want[j] += inputs[i][j] // integers: every fp sum is exact
		}
	}
	got, err := ring.Allreduce(inputs, reliability.ProtoSR)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("allreduce[%d] = %g, want exactly %g", j, got[j], want[j])
		}
	}
	t.Logf("ring-4 allreduce completed in %v virtual", vc.Elapsed())
}
