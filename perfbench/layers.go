package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// The traced run's CPU profiles are bucketed by the package of each
// sample's leaf frame. The tables below name every package of this
// module that the profiled code can reach; a sample in any other
// offloadsim/internal package is an error, so a new package cannot hide
// in the runtime bucket.

const modulePrefix = "offloadsim/internal/"

// engineLayerOf maps engine packages to the ns_per_instr.* layers.
var engineLayerOf = map[string]string{
	"rng":          "rng",
	"trace":        "trace",
	"workloads":    "trace",
	"syscalls":     "trace",
	"isa":          "trace",
	"cpu":          "cpu",
	"cache":        "cache",
	"coherence":    "coherence",
	"interconnect": "coherence",
	"memory":       "coherence",
	"core":         "offload",
	"policy":       "offload",
	"migration":    "offload",
	"oscore":       "offload",
	"sample":       "sample",
	"parallel":     "parallel",
	"sim":          "sim",
	"stats":        "sim",
	"telemetry":    "sim",
}

// parallelFiles are the quantum barrier and epoch reconcile, which live
// in the sim and coherence packages but belong to the parallel layer.
var parallelFiles = []string{"internal/sim/parallel", "internal/coherence/epoch.go"}

// serviceLayerOf maps module packages to the ns_per_job.* layers; the
// engine packages all fall in "engine".
var serviceLayerOf = map[string]string{
	"server":    "server",
	"cluster":   "cluster",
	"obs":       "obs",
	"telemetry": "telemetry",
}

// funcPackage returns the import path of a Go symbol such as
// "offloadsim/internal/cache.(*Cache).Probe".
func funcPackage(sym string) string {
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

// engineLayer returns the ns_per_instr layer of a leaf frame.
func engineLayer(fn, file string) (string, error) {
	pkg := funcPackage(fn)
	if !strings.HasPrefix(pkg, modulePrefix) {
		return "runtime", nil
	}
	for _, f := range parallelFiles {
		if strings.Contains(file, f) {
			return "parallel", nil
		}
	}
	name := strings.TrimPrefix(pkg, modulePrefix)
	if l, ok := engineLayerOf[name]; ok {
		return l, nil
	}
	return "", fmt.Errorf("profile sample in %s, which the engine layer table does not name", pkg)
}

// serviceLayer returns the ns_per_job layer of a leaf frame.
func serviceLayer(fn string) (string, error) {
	pkg := funcPackage(fn)
	switch {
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "internal/poll" || pkg == "syscall":
		return "net_http", nil
	case pkg == "encoding/json":
		return "encoding_json", nil
	case !strings.HasPrefix(pkg, modulePrefix):
		return "runtime", nil
	}
	name := strings.TrimPrefix(pkg, modulePrefix)
	if l, ok := serviceLayerOf[name]; ok {
		return l, nil
	}
	if _, ok := engineLayerOf[name]; ok {
		return "engine", nil
	}
	return "", fmt.Errorf("profile sample in %s, which the service layer table does not name", pkg)
}

// leafSample is one profile sample reduced to its leaf frame.
type leafSample struct {
	Func, File string
	CPUNanos   int64
}

// bucket sums a profile's CPU time per layer.
func bucket(samples []leafSample, layerOf func(fn, file string) (string, error)) (map[string]int64, error) {
	out := map[string]int64{}
	var errs []error
	for _, s := range samples {
		l, err := layerOf(s.Func, s.File)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		out[l] += s.CPUNanos
	}
	return out, errors.Join(dedupe(errs)...)
}

func dedupe(errs []error) []error {
	seen := map[string]bool{}
	var out []error
	for _, e := range errs {
		if !seen[e.Error()] {
			seen[e.Error()] = true
			out = append(out, e)
		}
	}
	return out
}

// parseCPUProfile decodes a gzipped pprof CPU profile as runtime/pprof
// writes it and returns each sample's leaf frame (the innermost inlined
// function of its first location) with its CPU nanoseconds.
func parseCPUProfile(gz []byte) ([]leafSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sampleRec struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		samples   []sampleRec
		locFunc   = map[uint64]uint64{} // location -> leaf function
		funcName  = map[uint64]int64{}
		funcFile  = map[uint64]int64{}
		valueType []int64 // string index of each sample value's type
	)
	err = pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return pbFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					valueType = append(valueType, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sampleRec
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return pbRepeated(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbRepeated(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, leaf uint64
			first := true
			err := pbFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined frame
					if first {
						first = false
						return pbFields(b, func(f, _ int, v uint64, _ []byte) error {
							if f == 1 {
								leaf = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = leaf
			return err
		case 5: // function
			var id uint64
			var name, file int64
			err := pbFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				case 4:
					file = int64(v)
				}
				return nil
			})
			funcName[id], funcFile[id] = name, file
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpuIdx := -1
	for i, t := range valueType {
		if str(t) == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]leafSample, 0, len(samples))
	for _, s := range samples {
		if len(s.locs) == 0 || cpuIdx >= len(s.values) {
			continue
		}
		fn := locFunc[s.locs[0]]
		out = append(out, leafSample{Func: str(funcName[fn]), File: path.Clean(str(funcFile[fn])), CPUNanos: s.values[cpuIdx]})
	}
	return out, nil
}

// pbFields walks the fields of one protobuf message. For varint fields
// it passes the value in v; for length-delimited fields the bytes in b.
func pbFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := pbVarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = pbVarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := pbVarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated decodes a repeated varint field, packed or not.
func pbRepeated(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
