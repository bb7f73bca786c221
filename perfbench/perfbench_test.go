package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsShort runs every workload briefly, traced, and checks
// that it verifies everything and reports a ledger that sums to 1.
func TestWorkloadsShort(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, config{seed: 3, seconds: 0.01, trace: true, msgs: 2 * window})
			if err != nil {
				t.Fatal(err)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Fatalf("attempted %d, failed %d: %v", res.attempted, res.failed, res.notes)
			}
			sum := 0.0
			for _, m := range res.perLayer {
				if strings.HasSuffix(m.name, ".share") {
					sum += m.value
				}
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("layer shares sum to %v", sum)
			}
			if len(res.endToEnd) == 0 {
				t.Fatal("no end-to-end metrics")
			}
		})
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memmove", "sdrrdma/internal/nicsim.(*Device).dmaWrite", "sdrrdma/internal/core.(*QP).poll"}, "nicsim"},
		{[]string{"sdrrdma/internal/gf256.MulAddSlice", "sdrrdma/internal/ec.(*RSCode).encodeRow"}, "gf256"},
		{[]string{"main.wordDigest", "main.transferSpec.rep.func2", "sdrrdma/internal/clock.(*Virtual).Go.func1"}, "harness"},
		{[]string{"runtime.mallocgc", "main.fillPattern", "main.main"}, "harness"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{[]string{"sort.Slice", "sdrrdma/internal/stats.Quantiles"}, "stats"},
		{nil, "runtime"},
	} {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestLedgerShares(t *testing.T) {
	lg := ledger{"nicsim": 300, "harness": 100, "runtime": 100}
	sum := 0.0
	for _, l := range layers {
		sum += lg.share(l)
	}
	if sum != 1 || lg.share("nicsim") != 0.6 || lg.share("gf256") != 0 {
		t.Fatalf("shares: sum %v, nicsim %v", sum, lg.share("nicsim"))
	}
}

// TestCorruptedRegionFails damages one received region before it is
// verified; the run must count it as a failed message.
func TestCorruptedRegionFails(t *testing.T) {
	corrupt := func(msg int, region []byte) {
		if msg == 1 {
			region[len(region)/2] ^= 1
		}
	}
	res, err := runTransfer(*workloads[0].spec, config{seed: 1, seconds: 0.01, msgs: window, faults: faults{corrupt: corrupt}})
	if err != nil {
		t.Fatal(err)
	}
	// Message 1 of the warm-up and of each repetition is damaged.
	if want := res.attempted / window; res.failed != want || res.json(false).Correct {
		t.Fatalf("corruption not reported: attempted %d, failed %d, want %d failed", res.attempted, res.failed, want)
	}
}

// TestSkippedWriteFails receives one second-lap message elsewhere, so
// the stack never writes the region that is verified, which the first
// lap filled with the very same bytes. The run must count it as failed.
func TestSkippedWriteFails(t *testing.T) {
	for _, w := range workloads[:2] { // SR and EC receive paths
		t.Run(w.name, func(t *testing.T) {
			divert := func(msg int) bool { return msg == window+1 }
			res, err := runTransfer(*w.spec, config{seed: 1, seconds: 0.01, msgs: 2 * window, faults: faults{divert: divert}})
			if err != nil {
				t.Fatal(err)
			}
			// The warm-up's single lap is untouched; each repetition
			// loses its diverted message.
			if want := (res.attempted - window) / (2 * window); res.failed != want || res.json(false).Correct {
				t.Fatalf("skipped write not reported: attempted %d, failed %d, want %d failed", res.attempted, res.failed, want)
			}
		})
	}
}

// TestProbeSecondsCancelSlowdown: a host slowed by half slows the
// transfer and the probe passes timed next to it alike, and the
// transfer's probe-seconds do not move.
func TestProbeSecondsCancelSlowdown(t *testing.T) {
	fast := repResult{wall: 2 * time.Second, probe: 40 * time.Millisecond, passes: 128}
	slow := repResult{wall: 3 * time.Second, probe: 60 * time.Millisecond, passes: 128}
	if a, b := fast.probeSeconds(), slow.probeSeconds(); math.Abs(a-b) > 1e-12*a {
		t.Fatalf("probe-seconds %v fast, %v slow", a, b)
	}
}

func TestPatternDistinguishesRegions(t *testing.T) {
	buf := make([]byte, 1<<12)
	fillPattern(buf, 7, 1)
	if !patternOK(buf, 7, 1) {
		t.Fatal("own pattern rejected")
	}
	if patternOK(buf, 7, 2) {
		t.Fatal("another region's pattern accepted")
	}
	if patternOK(buf, 8, 1) {
		t.Fatal("another seed's pattern accepted")
	}
}

// TestResultLine checks the command's contract: the last line of
// standard output is one JSON object with exactly four keys.
func TestResultLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "sr-bulk", "--seed", "2", "--seconds", "0.01", "--trace", "0"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Fatalf("result keys: %s", lines[len(lines)-1])
	}
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 {
		t.Fatal("unknown workload accepted")
	}
}

// TestRecordsMatchWorkloads keeps design.json and the BENCHMARK.json at
// the repository root in step with the workloads table, the one source
// of each workload's parameters and rationale.
func TestRecordsMatchWorkloads(t *testing.T) {
	var design struct {
		Workloads map[string]struct {
			Why        string   `json:"why"`
			Scheme     string   `json:"scheme"`
			MsgsPerRep int      `json:"msgs_per_rep"`
			RTTms      float64  `json:"rtt_ms"`
			Drop       float64  `json:"drop"`
			CrossBps   float64  `json:"cross_bps"`
			Figures    []string `json:"figures"`
		} `json:"workloads"`
	}
	var bench struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
	}
	readJSON(t, "design.json", &design)
	readJSON(t, "../BENCHMARK.json", &bench)

	if len(design.Workloads) != len(workloads) {
		t.Errorf("design.json has %d workloads, the table %d", len(design.Workloads), len(workloads))
	}
	for _, w := range workloads {
		d, ok := design.Workloads[w.name]
		if !ok {
			t.Errorf("design.json lacks %s", w.name)
			continue
		}
		if d.Why != w.why {
			t.Errorf("%s: design.json why %q, table %q", w.name, d.Why, w.why)
		}
		if w.spec == nil {
			if !slices.Equal(d.Figures, figureIDs[:]) {
				t.Errorf("%s: design.json figures %q, table %q", w.name, d.Figures, figureIDs)
			}
			continue
		}
		s := w.spec
		if d.Scheme != s.scheme || d.MsgsPerRep != s.msgs || d.RTTms != ms(s.rtt) || d.Drop != s.drop || d.CrossBps != s.crossBps {
			t.Errorf("%s: design.json parameters %+v, table %+v", w.name, d, *s)
		}
	}
	for _, b := range bench.Workloads {
		i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == b.Name })
		if i < 0 {
			t.Errorf("BENCHMARK.json lists %s, which the table lacks", b.Name)
		} else if b.Why != workloads[i].why {
			t.Errorf("%s: BENCHMARK.json why %q, table %q", b.Name, b.Why, workloads[i].why)
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
