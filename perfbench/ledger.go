package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// layers are the ledger's rows: every internal package, then the
// benchmark's own code and the Go runtime.
var layers = []string{
	"bitmap", "chaos", "clock", "collective", "core", "dpa", "ec",
	"experiments", "fabric", "gf256", "model", "netem", "nicsim",
	"protosim", "reliability", "session", "simnet", "stats", "telemetry",
	"trace", "wan", "harness", "runtime",
}

const internalPrefix = "sdrrdma/internal/"

// layerOf charges one stack, innermost frame first, to its innermost
// frame in an internal package or in the harness (package main). Stacks
// with neither — GC workers, the scheduler — belong to the runtime.
func layerOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
		if strings.HasPrefix(f, "main.") {
			return "harness"
		}
	}
	return "runtime"
}

// ledger is host CPU time by layer.
type ledger map[string]int64 // nanoseconds

func (l ledger) total() int64 {
	var t int64
	for _, v := range l {
		t += v
	}
	return t
}

// share is layer's fraction of all profiled CPU time.
func (l ledger) share(layer string) float64 {
	t := l.total()
	if t == 0 {
		return 0
	}
	return float64(l[layer]) / float64(t)
}

// profile runs f under the CPU profiler and adds its samples to l.
func (l ledger) profile(f func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	err := f()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	got, err := ledgerFromProfile(buf.Bytes())
	for layer, ns := range got {
		l[layer] += ns
	}
	return err
}

// ledgerFromProfile reads a gzipped pprof CPU profile and charges each
// sample's CPU nanoseconds to layerOf(its stack).
func ledgerFromProfile(gz []byte) (ledger, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	cpu := -1
	for i, st := range p.sampleTypes {
		if p.str(st[0]) == "cpu" && p.str(st[1]) == "nanoseconds" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	l := ledger{}
	var frames []string
	for _, s := range p.samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile: short sample")
		}
		frames = frames[:0]
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				frames = append(frames, p.str(p.functions[fn]))
			}
		}
		l[layerOf(frames)] += s.values[cpu]
	}
	return l, nil
}

// profile is the subset of profile.proto the ledger needs.
type profile struct {
	sampleTypes [][2]int64 // (type, unit) string indices
	samples     []sample
	locations   map[uint64][]uint64 // location id → function ids, innermost first
	functions   map[uint64]int64    // function id → name string index
	strings     []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileString     = 6

	fValueTypeType = 1
	fValueTypeUnit = 2

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := walk(b, func(f field) error {
		switch f.num {
		case fProfileSampleType:
			var vt [2]int64
			err := walk(f.data, func(g field) error {
				switch g.num {
				case fValueTypeType:
					vt[0] = int64(g.v)
				case fValueTypeUnit:
					vt[1] = int64(g.v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, vt)
			return err
		case fProfileSample:
			var s sample
			err := walk(f.data, func(g field) error {
				switch g.num {
				case fSampleLocation:
					return g.uints(func(v uint64) { s.locations = append(s.locations, v) })
				case fSampleValue:
					return g.uints(func(v uint64) { s.values = append(s.values, int64(v)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := walk(f.data, func(g field) error {
				switch g.num {
				case fLocationID:
					id = g.v
				case fLocationLine:
					return walk(g.data, func(h field) error {
						if h.num == fLineFunction {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := walk(f.data, func(g field) error {
				switch g.num {
				case fFunctionID:
					id = g.v
				case fFunctionName:
					name = int64(g.v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fProfileString:
			p.strings = append(p.strings, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// field is one protobuf field: a varint (v) or a length-delimited
// payload (data). Fixed-width wire types are skipped.
type field struct {
	num  int
	wire int
	v    uint64
	data []byte
}

// uints yields a repeated varint field in either encoding: one value
// per field, or packed into one length-delimited field.
func (f field) uints(fn func(uint64)) error {
	if f.wire == 0 {
		fn(f.v)
		return nil
	}
	b := f.data
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

func walk(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}
