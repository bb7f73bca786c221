package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"time"

	"sdrrdma/internal/experiments"
	"sdrrdma/internal/telemetry"
)

// figureIDs are the figures the sweep regenerates: the functional
// stacks (WAN, multi-DC, adaptive, chaos) and the DES cross-check.
var figureIDs = [...]string{"wan-functional", "multidc-functional", "adaptive-functional", "chaos-functional", "des-validate"}

// sweepResult is one regeneration of every figure.
type sweepResult struct {
	wall     time.Duration
	figWall  [len(figureIDs)]time.Duration
	digest   [len(figureIDs)]uint64 // tableDigest of each figure
	heapPeak uint64

	coldBuilds, leases int // traced sweeps only
}

// sweep regenerates every figure at bench_test.go's benchOpts fidelity
// with the given sweep-lane count. traced gives each figure its own
// flight recorder.
func sweep(seed int64, workers int, traced bool) (sweepResult, error) {
	var s sweepResult
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	start := time.Now()
	for i, id := range figureIDs {
		o := experiments.Options{Samples: 200, TailSamples: 1000, Seed: seed, DurationSec: 0.15, SweepWorkers: workers}
		if traced {
			o.Trace = telemetry.NewTrace(id)
		}
		t0 := time.Now()
		res, err := experiments.Run(id, o)
		s.figWall[i] = time.Since(t0)
		if err != nil {
			return s, fmt.Errorf("figure %s: %w", id, err)
		}
		s.digest[i] = tableDigest(res)
		metrics.Read(heap)
		s.heapPeak = max(s.heapPeak, heap[0].Value.Uint64())
		if traced {
			for c := 0; c < o.Trace.NumCells(); c++ {
				if rec := o.Trace.Cell(c); rec != nil {
					s.coldBuilds += rec.EventCount(telemetry.EvColdBuild)
					s.leases += rec.EventCount(telemetry.EvLease)
				}
			}
		}
	}
	s.wall = time.Since(start)
	return s, nil
}

// runFigures measures the figure sweep: a warm-up, then sweeps until
// the run's seconds are spent, with cfg.trace each followed by one
// traced and profiled. Every sweep, and one on a single lane, must give
// byte-identical figures; a figure whose digest differs fails.
func runFigures(cfg config) (*result, error) {
	workers := runtime.NumCPU()
	res := &result{}
	ref, err := sweep(cfg.seed, workers, false)
	if err != nil {
		return nil, err
	}
	check := func(s sweepResult) {
		res.attempted += len(figureIDs)
		for i := range figureIDs {
			if s.digest[i] != ref.digest[i] {
				res.failed++
				res.notes = append(res.notes, fmt.Sprintf("DETERMINISM: %s digest %016x, first sweep %016x", figureIDs[i], s.digest[i], ref.digest[i]))
			}
		}
	}
	check(ref)
	serial, err := sweep(cfg.seed, 1, false)
	if err != nil {
		return nil, err
	}
	check(serial)

	// Traced sweeps alternate with plain ones, so a drift in the host's
	// speed reaches both alike.
	start := time.Now()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var plain, traced []sweepResult
	lg := ledger{}
	for len(plain) < 2 || time.Since(start) < budget {
		s, err := sweep(cfg.seed, workers, false)
		if err != nil {
			return nil, err
		}
		check(s)
		plain = append(plain, s)
		if !cfg.trace {
			continue
		}
		err = lg.profile(func() (err error) {
			s, err = sweep(cfg.seed, workers, true)
			return err
		})
		if err != nil {
			return nil, err
		}
		check(s)
		traced = append(traced, s)
	}

	medianOf := func(ss []sweepResult, f func(s sweepResult) float64) float64 {
		vs := make([]float64, len(ss))
		for i, s := range ss {
			vs[i] = f(s)
		}
		return median(vs)
	}
	wall := medianOf(plain, func(s sweepResult) float64 { return s.wall.Seconds() })
	res.notes = append(res.notes, fmt.Sprintf("figures=%v samples=200 tail-samples=1000 duration=0.15 s sweep-workers=%d; %d measured + %d traced sweeps",
		figureIDs, workers, len(plain), len(traced)))
	res.endToEnd = []metric{
		{name: "figure_wall_s", unit: "s", value: wall, note: fmt.Sprintf("median of %d sweeps", len(plain))},
		{name: "heap_peak_MB", unit: "MB", value: medianOf(plain, func(s sweepResult) float64 { return float64(s.heapPeak) / 1e6 })},
	}
	if !cfg.trace {
		return res, nil
	}
	res.perLayer = ledgerMetrics(lg)
	for i, id := range figureIDs {
		res.perLayer = append(res.perLayer, metric{name: "fig." + id + ".wall_ms", unit: "ms",
			value: medianOf(plain, func(s sweepResult) float64 { return ms(s.figWall[i]) })})
	}
	res.perLayer = append(res.perLayer,
		metric{name: "session.cold_builds", unit: "count", value: float64(traced[0].coldBuilds), note: "per sweep"},
		metric{name: "session.leases", unit: "count", value: float64(traced[0].leases), note: "per sweep"},
		metric{name: "trace.overhead", unit: "ratio", value: medianOf(traced, func(s sweepResult) float64 { return s.wall.Seconds() })/wall - 1,
			note: "traced+profiled sweep wall over untraced, minus 1"},
	)
	return res, nil
}

// tableDigest hashes a figure's title, header and rows. Notes are left
// out: a traced run appends its flight-recorder timeline to them.
func tableDigest(r *experiments.Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%q\x00", r.Name, r.Title, r.Header)
	for _, row := range r.Rows {
		fmt.Fprintf(h, "%q\x00", row)
	}
	return h.Sum64()
}
