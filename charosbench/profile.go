package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run attributes CPU time to layers without any tracing inside
// the program: a runtime/pprof CPU profile is decoded here (a minimal
// reader of the profile.proto wire format, since the standard library has
// no public one) and each sample is charged to the package of its leaf
// frame, split by the benchmark's "span" pprof label.

// profSample is one decoded CPU-profile sample.
type profSample struct {
	leaf  string // function name of the innermost frame
	span  string // value of the "span" label ("" when unlabeled)
	nanos int64  // CPU time the sample stands for
}

// decodeProfile parses a gzipped profile.proto CPU profile.
func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // (key, str) string-table indices
	}
	var (
		samples []rawSample
		strs    []string
		locFunc = map[uint64]uint64{} // location id → leaf function id
		funName = map[uint64]int64{}  // function id → name string index
		period  int64
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var kv [2]int64
					err := eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			first := true
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					// Inlined frames come leaf first: the first line is
					// the innermost function.
					if first {
						first = false
						return eachField(b, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		case 12:
			period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{}
		if len(s.locs) > 0 {
			ps.leaf = str(funName[locFunc[s.locs[0]]])
		}
		for _, kv := range s.labels {
			if str(kv[0]) == "span" {
				ps.span = str(kv[1])
			}
		}
		switch {
		case len(s.values) >= 2: // [samples/count, cpu/nanoseconds]
			ps.nanos = s.values[1]
		case len(s.values) == 1:
			ps.nanos = s.values[0] * period
		}
		out = append(out, ps)
	}
	return out, nil
}

// eachField walks the top-level fields of one protobuf message, handing
// each to fn with its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrived either as one
// value (v, data nil) or packed (data holds the varints).
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// packageOf returns the import path of a Go symbol name, e.g.
// "repro/internal/cache.(*DataHierarchy).accessDM" → "repro/internal/cache".
func packageOf(fn string) string {
	start := strings.LastIndexByte(fn, '/') + 1
	if i := strings.IndexByte(fn[start:], '.'); i >= 0 {
		return fn[:start+i]
	}
	return fn
}

// cpuLayers are the buckets the profile is attributed to: the repository's
// module names, the Go runtime, the benchmark itself, and everything else.
var cpuLayers = []string{"sim", "cache", "bus", "tlb", "kernel", "trace", "monitor", "service", "runtime", "bench", "other"}

// layerOf maps a package to its cpuLayers bucket. The kernel layer covers
// the kernel model with its lock and memory-allocator packages, and the
// sim layer the workload behaviours it drives.
func layerOf(pkg string) string {
	if p, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		switch p {
		case "sim", "cache", "bus", "tlb", "trace", "monitor", "service":
			return p
		case "kernel", "klock", "kmem":
			return "kernel"
		case "workload", "sample":
			return "sim"
		}
		return "other"
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "main":
		return "bench"
	}
	return "other"
}

// attribution is the per-package and per-layer split of the profile
// samples that fall in one span (or in every span, for span "").
type attribution struct {
	TotalS   float64            `json:"total_s"`
	Samples  int                `json:"samples"`
	Layers   map[string]float64 `json:"layer_share"`
	Packages map[string]float64 `json:"package_s"`
}

// attribute charges the samples whose span label equals span (all samples
// when span is "") to their leaf packages and layers.
func attribute(samples []profSample, span string) attribution {
	a := attribution{Layers: map[string]float64{}, Packages: map[string]float64{}}
	var total int64
	for _, s := range samples {
		if span != "" && s.span != span {
			continue
		}
		total += s.nanos
		a.Samples++
		pkg := packageOf(s.leaf)
		a.Packages[pkg] += float64(s.nanos) / 1e9
		a.Layers[layerOf(pkg)] += float64(s.nanos)
	}
	a.TotalS = float64(total) / 1e9
	for _, l := range cpuLayers {
		a.Layers[l] = ratio(a.Layers[l], float64(total))
	}
	return a
}
