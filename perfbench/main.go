// Command perfbench is the repository's end-to-end benchmark. Each
// workload drives the SDR stack through its public APIs on the virtual
// clock, verifies every output, and prints its metrics by name and
// unit; the last line of standard output is one JSON object.
//
//	bash perfbench/run.sh --workload sr-bulk --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured untraced.
// --trace 1 follows each plain repetition with a traced one (flight
// recorder plus an in-process CPU profile) and reports the per-layer
// metrics: a host-time ledger that
// charges each profile sample to its innermost sdrrdma/internal/<pkg>
// frame, to the harness, or to the Go runtime.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// workload is one named benchmark input.
type workload struct {
	name string
	why  string
	// spec is nil for the figure sweep.
	spec *transferSpec
}

var workloads = []workload{
	{
		name: "sr-bulk",
		why:  "SR on a dedicated lossless 1 ms link: the per-packet fast path (nicsim DMA, core bitmap, fabric, clock baton); bypasses GF(256) and recovery",
		spec: &transferSpec{scheme: "sr", msgs: 128, rtt: time.Millisecond},
	},
	{
		name: "ec-lossy",
		why:  "EC RS(32,8) at 10 ms RTT and 1e-2 drop, the long-haul regime where EC beats SR: GF(256) encode and reconstruct dominate host time",
		spec: &transferSpec{scheme: "ec", msgs: 256, rtt: 10 * time.Millisecond, drop: 1e-2},
	},
	{
		name: "adaptive-contended",
		why:  "adaptive ladder at 1e-3 drop on a netem bottleneck shared with 60 Gbit/s Poisson cross traffic: recovery, queueing and the clock",
		spec: &transferSpec{scheme: "adaptive", msgs: 128, rtt: time.Millisecond, drop: 1e-3, crossBps: 60e9},
	},
	{
		name: "figure-sweep",
		why:  "regenerates five functional and DES figures in-process: session pools, sweep lanes, chaos, protosim and model",
	},
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// msgs overrides the messages per repetition (tests); 0 keeps the
	// workload's own.
	msgs   int
	faults faults
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	note       string // printed beside the value, not in the JSON
}

// result is one workload's outcome. endToEnd is measured untraced;
// perLayer comes from the traced run and is empty without --trace 1.
type result struct {
	attempted, failed int
	endToEnd          []metric
	perLayer          []metric
	notes             []string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames()+" | all")
	seed := fs.Int64("seed", 1, "workload seed (loss draws, payloads, cross traffic, figure cells)")
	seconds := fs.Float64("seconds", 10, "host seconds to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: add the traced run and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s | all)\n", *name, workloadNames())
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}

	fmt.Fprintln(stdout, fingerprint(cfg.seed))
	var lines []jsonResult
	for _, w := range selected {
		res, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		res.print(stdout, w)
		lines = append(lines, res.json(cfg.trace))
	}
	final := lines[0]
	if len(lines) > 1 {
		// One line per workload, then their union under
		// "<workload>/<metric>" names as the last line.
		final = jsonResult{Metrics: map[string]jsonMetric{}}
		for i, l := range lines {
			fmt.Fprintf(stdout, "%s ", selected[i].name)
			if err := writeJSON(stdout, l); err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", selected[i].name, err)
				return 1
			}
			final.Attempted += l.Attempted
			final.Failed += l.Failed
			for k, v := range l.Metrics {
				final.Metrics[selected[i].name+"/"+k] = v
			}
		}
		final.Correct = final.Failed == 0
	}
	if err := writeJSON(stdout, final); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if final.Failed > 0 {
		return 1
	}
	return 0
}

func runWorkload(w workload, cfg config) (*result, error) {
	if w.spec == nil {
		return runFigures(cfg)
	}
	return runTransfer(*w.spec, cfg)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, " | ")
}

// fingerprint identifies the host and build a result came from.
func fingerprint(seed int64) string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			commit += "+dirty"
		}
	}
	return fmt.Sprintf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s seed=%d",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, seed)
}

func (r *result) print(w io.Writer, wl workload) {
	fmt.Fprintf(w, "workload %s: %s\n", wl.name, wl.why)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	show := func(ms []metric) {
		for _, m := range ms {
			fmt.Fprintf(w, "  %-36s %16.6g %-10s %s\n", m.name, m.value, m.unit, m.note)
		}
	}
	show(r.endToEnd)
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-36s %16.6g %-10s %d of %d failed\n", "failed_ratio", ratio, "ratio", r.failed, r.attempted)
	show(r.perLayer)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// json is the result line: end-to-end metrics, or per-layer metrics
// when traced.
func (r *result) json(traced bool) jsonResult {
	ms := r.endToEnd
	if traced {
		ms = r.perLayer
	}
	out := jsonResult{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]jsonMetric, len(ms)),
	}
	for _, m := range ms {
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return out
}

// writeJSON prints v on one line; it fails on a non-finite metric.
func writeJSON(w io.Writer, v jsonResult) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
