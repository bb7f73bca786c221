package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"sdrrdma/internal/ec"
	"sdrrdma/internal/gf256"
	"sdrrdma/internal/telemetry"
)

// A run builds setupsPerRep deployments besides each plain
// repetition's own, spread over the run like the repetitions, and at
// least minSetups in all, so setup_s is a median of many even when a
// repetition takes seconds.
const (
	setupsPerRep = 3
	minSetups    = 32
)

// runTransfer measures one transfer workload: a short warm-up, then
// repetitions of spec.msgs messages until the run's seconds are spent.
// With cfg.trace every plain repetition is followed by one under the
// flight recorder and the CPU profiler. Every repetition must reproduce
// the first one's simulated signature.
func runTransfer(spec transferSpec, cfg config) (*result, error) {
	// One core, as the virtual clock runs one actor at a time anyway.
	// With EC's kernel pool on the second core of a shared 2-core host,
	// ec-lossy's host goodput swung 1.9x between runs, against 1.13x on
	// one core.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer ec.ForceParallelism(1)()

	n := spec.msgs
	if cfg.msgs > 0 {
		n = cfg.msgs
	}
	b := spec.newBuffers()
	pr, err := newProbe()
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	defer pr.close()
	res := &result{}
	account := func(r repResult, msgs int) {
		res.attempted += msgs
		res.failed += msgs - r.verified
	}

	// Warm-up: lazy initialisation and heap growth stay out of the
	// measured repetitions. Its messages are verified like any other.
	warm := spec.rep(cfg.seed, window, b, nil, pr, cfg.faults)
	account(warm, window)
	if warm.err != nil {
		return nil, warm.err
	}

	var setups []float64
	setup := func() error {
		runtime.GC() // as in rep
		t0 := time.Now()
		d, err := spec.deploy(cfg.seed, b, nil)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		d.close()
		return nil
	}

	// Traced repetitions alternate with plain ones, so a drift in the
	// host's speed reaches both alike.
	start := time.Now()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var plain, traced []repResult
	lg := ledger{}
	for len(plain) < 2 || time.Since(start) < budget {
		r := spec.rep(cfg.seed, n, b, nil, pr, cfg.faults)
		account(r, n)
		if r.err != nil {
			return nil, r.err
		}
		plain = append(plain, r)
		setups = append(setups, r.setup.Seconds())
		for i := 0; i < setupsPerRep; i++ {
			if err := setup(); err != nil {
				return nil, err
			}
		}
		if !cfg.trace {
			continue
		}
		err := lg.profile(func() error {
			r = spec.rep(cfg.seed, n, b, telemetry.NewTrace("perfbench"), nil, cfg.faults)
			account(r, n)
			return r.err
		})
		if err != nil {
			return nil, err
		}
		traced = append(traced, r)
	}

	// Determinism self-check: a repetition whose simulated outcome
	// differs from the first fails all of its messages.
	ref := plain[0]
	mismatched := 0
	for _, r := range slices.Concat(plain[1:], traced) {
		if r.sig != ref.sig {
			mismatched++
			res.failed += r.verified // its verified messages count as failed too
		}
	}
	if mismatched > 0 {
		res.notes = append(res.notes, fmt.Sprintf("DETERMINISM: %d repetition(s) differ from the first", mismatched))
	}

	for len(setups) < minSetups {
		if err := setup(); err != nil {
			return nil, err
		}
	}

	payload := float64(n) * msgBytes
	sig := ref.sig
	sorted := slices.Clone(ref.completions)
	slices.Sort(sorted)
	p50 := sorted[(len(sorted)-1)/2]
	tailIdx, tailPct := tailRank(len(sorted))
	perRep := func(f func(r repResult) float64) float64 {
		vs := make([]float64, len(plain))
		for i, r := range plain {
			vs[i] = f(r)
		}
		return median(vs)
	}
	wall := typical(plain, repResult.wallSeconds)
	probeWall := typical(plain, repResult.probeSeconds)
	passUs := perRep(func(r repResult) float64 { return float64(r.probe.Microseconds()) / float64(r.passes) })

	res.notes = append(res.notes, fmt.Sprintf(
		"scheme=%s msgs/rep=%d msg=%d B window=%d mtu=%d chunk=%d channels=%d rtt=%v drop=%g cross=%g bit/s gomaxprocs=%d; %d measured + %d traced repetitions",
		spec.scheme, n, msgBytes, window, mtu, chunkBytes, channels, spec.rtt, spec.drop, spec.crossBps, runtime.GOMAXPROCS(0), len(plain), len(traced)))
	res.notes = append(res.notes, fmt.Sprintf("host wall: %.6g MB/s, %.6g pkts/s; probe pass %.4g us", payload/1e6/wall, float64(sig.HostPkts)/wall, passUs))
	res.endToEnd = []metric{
		{name: "host_goodput_norm", unit: "MB/probe-s", value: payload / 1e6 / probeWall,
			note: fmt.Sprintf("host time in probe-seconds of %d passes", passesPerProbeSecond)},
		{name: "host_pkts_norm", unit: "pkts/probe-s", value: float64(sig.HostPkts) / probeWall,
			note: "one core: the virtual clock runs one actor at a time"},
		{name: "sim_goodput_Gbps", unit: "Gbit/s", value: payload * 8 / float64(sig.SimNs)},
		{name: "msg_sim_p50_ms", unit: "sim-ms", value: ms(p50), note: fmt.Sprintf("p50 of %d messages", len(sorted))},
		{name: "msg_sim_tail_ms", unit: "sim-ms", value: ms(sorted[tailIdx]),
			note: fmt.Sprintf("p%.4g of %d messages, %d beyond", tailPct, len(sorted), len(sorted)-1-tailIdx)},
		{name: "wire_overhead", unit: "ratio", value: float64(sig.DataRecv) / (payload / mtu), note: "data packets received per payload packet"},
		{name: "setup_s", unit: "s", value: median(setups), note: fmt.Sprintf("median of %d deployments", len(setups))},
		{name: "heap_peak_MB", unit: "MB", value: perRep(func(r repResult) float64 { return float64(r.heapPeak) / 1e6 })},
	}
	if !cfg.trace {
		return res, nil
	}

	tr := traced[0]
	muladd, encode, reconstruct := kernelRates()
	res.perLayer = append(ledgerMetrics(lg),
		metric{name: "host_goodput_MBps", unit: "MB/s", value: payload / 1e6 / wall, note: "host wall time"},
		metric{name: "host_pkts_per_s", unit: "pkts/s", value: float64(sig.HostPkts) / wall, note: "host wall time"},
		metric{name: "probe.pass_us", unit: "us", value: passUs, note: "median over repetitions of the mean pass"},
		metric{name: "host_pkts", unit: "count", value: float64(sig.HostPkts), note: "per repetition; the ns/packet denominator"},
		metric{name: "gf256.muladd_GBps", unit: "GB/s", value: muladd, note: "MulAddSlice over 64 KiB"},
		metric{name: "ec.encode_GBps", unit: "GB/s", value: encode, note: "RS(32,8), 64 KiB shards, data bytes"},
		metric{name: "ec.reconstruct_GBps", unit: "GB/s", value: reconstruct, note: "RS(32,8), 8 data shards lost"},
		metric{name: "runtime.allocs_per_pkt", unit: "allocs/pkt", value: perRep(func(r repResult) float64 { return float64(r.mallocs) / float64(r.sig.HostPkts) })},
		metric{name: "runtime.gc_cycles", unit: "count", value: perRep(func(r repResult) float64 { return float64(r.gcCycles) }), note: "per repetition"},
		metric{name: "runtime.gc_pause_ms", unit: "ms", value: perRep(func(r repResult) float64 { return ms(r.gcPause) }), note: "per repetition"},
		metric{name: "netem.queue_depth_p99_bytes", unit: "bytes", value: float64(tr.depth), note: "bottleneck forward queue at admission"},
		metric{name: "reliability.retx_rto", unit: "count", value: float64(tr.retx[telemetry.CauseRTO])},
		metric{name: "reliability.retx_hole", unit: "count", value: float64(tr.retx[telemetry.CauseHole])},
		metric{name: "reliability.retx_nack", unit: "count", value: float64(tr.retx[telemetry.CauseNack])},
		metric{name: "reliability.nacks", unit: "count", value: float64(tr.events[telemetry.EvNack])},
		metric{name: "reliability.late_reacks", unit: "count", value: float64(tr.events[telemetry.EvLateReAck])},
		metric{name: "reliability.ladder_switches", unit: "count", value: float64(tr.events[telemetry.EvLadderSwitch])},
		metric{name: "core.data_pkts_sent", unit: "count", value: float64(sig.DataSent)},
		metric{name: "core.data_pkts_recv", unit: "count", value: float64(sig.DataRecv)},
		metric{name: "core.duplicates", unit: "count", value: float64(sig.Duplicates)},
		metric{name: "core.late_discarded", unit: "count", value: float64(sig.LateDisc)},
		metric{name: "core.cts_sent", unit: "count", value: float64(sig.CTSSent)},
		metric{name: "nicsim.rx_pkts", unit: "count", value: float64(sig.RecvDevPkts), note: "receiving device"},
		metric{name: "netem.tail_drops", unit: "count", value: float64(sig.TailDrops)},
		metric{name: "netem.ecn_marked", unit: "count", value: float64(sig.ECNMarked)},
		metric{name: "netem.cross_sent", unit: "count", value: float64(sig.CrossSent)},
		metric{name: "session.cold_builds", unit: "count", value: float64(tr.events[telemetry.EvColdBuild])},
		metric{name: "session.leases", unit: "count", value: float64(tr.events[telemetry.EvLease])},
		metric{name: "harness.fill_ms", unit: "ms", value: perRep(func(r repResult) float64 { return ms(r.fill) }), note: "per repetition, untimed"},
		metric{name: "harness.verify_ms", unit: "ms", value: perRep(func(r repResult) float64 { return ms(r.verify) }), note: "per repetition, untimed"},
		metric{name: "trace.overhead", unit: "ratio", value: typical(traced, repResult.wallSeconds)/wall - 1, note: "traced+profiled transfer wall over untraced, minus 1"},
	)
	return res, nil
}

// ledgerMetrics turns the ledger into layer.<pkg>.self_ms and .share
// rows for every layer, zero where the profile saw none.
func ledgerMetrics(lg ledger) []metric {
	var out []metric
	for _, l := range layers {
		out = append(out,
			metric{name: "layer." + l + ".self_ms", unit: "ms", value: float64(lg[l]) / 1e6},
			metric{name: "layer." + l + ".share", unit: "ratio", value: lg.share(l)})
	}
	return out
}

// kernelRates times the GF(256) and RS(32,8) public entry points at the
// workloads' 64 KiB chunking; each rate is the median of five batches.
func kernelRates() (muladd, encode, reconstruct float64) {
	const shard = chunkBytes
	rng := rand.New(rand.NewSource(1))
	data := make([][]byte, 32)
	parity := make([][]byte, 8)
	for i := range data {
		data[i] = make([]byte, shard)
		rng.Read(data[i])
	}
	for i := range parity {
		parity[i] = make([]byte, shard)
	}
	code, err := ec.NewRS(32, 8)
	if err != nil {
		panic(err) // RS(32,8) is a valid fixed code
	}
	rate := func(bytesPerOp float64, op func()) float64 {
		var rates []float64
		for batch := 0; batch < 5; batch++ {
			ops := 0
			t0 := time.Now()
			for time.Since(t0) < 30*time.Millisecond {
				op()
				ops++
			}
			rates = append(rates, bytesPerOp*float64(ops)/time.Since(t0).Seconds()/1e9)
		}
		return median(rates)
	}
	muladd = rate(shard, func() { gf256.MulAddSlice(0x53, parity[0], data[0]) })
	encode = rate(32*shard, func() {
		if err := code.Encode(data, parity); err != nil {
			panic(err)
		}
	})
	if err := code.Encode(data, parity); err != nil {
		panic(err)
	}
	shards := append(append([][]byte{}, data...), parity...)
	present := make([]bool, len(shards))
	reconstruct = rate(32*shard, func() {
		for i := range present {
			present[i] = i >= 8 // the first 8 data shards are lost
		}
		if err := code.Reconstruct(shards, present); err != nil {
			panic(err)
		}
	})
	return muladd, encode, reconstruct
}

// typical is f's typical value over repetitions: the mean with the
// fastest and slowest tenth left out. A host that is slowed for part of
// a run moves the mean smoothly with the share of time slowed, where a
// median jumps between the fast and the slow mode.
func typical(reps []repResult, f func(repResult) float64) float64 {
	vs := make([]float64, len(reps))
	for i, r := range reps {
		vs[i] = f(r)
	}
	slices.Sort(vs)
	cut := len(vs) / 10
	kept := vs[cut : len(vs)-cut]
	total := 0.0
	for _, v := range kept {
		total += v
	}
	return total / float64(len(kept))
}

func (r repResult) wallSeconds() float64 { return r.wall.Seconds() }

// probeSeconds is the transfer's wall time in probe-seconds: divided by
// the repetition's mean probe pass and by passesPerProbeSecond.
func (r repResult) probeSeconds() float64 {
	return r.wall.Seconds() / (r.probe.Seconds() / float64(r.passes)) / passesPerProbeSecond
}

// tailRank returns the index of the highest order statistic with at
// least 10 samples beyond it (the last one when n <= 10) and its
// percentile.
func tailRank(n int) (int, float64) {
	i := n - 11
	if i < 0 {
		i = n - 1
	}
	return i, 100 * float64(i+1) / float64(n)
}

func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
