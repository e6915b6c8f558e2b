package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"strings"
)

// This file reads the CPU profile runtime/pprof writes — a gzip-compressed
// protocol-buffer message (perftools.profiles.Profile) — with just enough
// of the wire format to recover each sample's call stack as function names
// and its CPU time, so the traced pass can fold host time by package with
// no dependency beyond the standard library.

// startCPUProfile starts profiling into memory and returns the function
// that stops it and hands back the profile; calling it again is harmless.
func startCPUProfile() (stop func() []byte, err error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	running := true
	return func() []byte {
		if running {
			pprof.StopCPUProfile()
			running = false
		}
		return buf.Bytes()
	}, nil
}

// protoField is one decoded field of a protocol-buffer message: varint
// fields carry v, length-delimited fields carry b.
type protoField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

func readVarint(buf []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(buf) && i < 10; i++ {
		v |= uint64(buf[i]&0x7f) << (7 * uint(i))
		if buf[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// readFields splits one message into its fields.
func readFields(buf []byte) ([]protoField, error) {
	var out []protoField
	for len(buf) > 0 {
		tag, n := readVarint(buf)
		if n == 0 {
			return nil, fmt.Errorf("pprof: bad field tag")
		}
		buf = buf[n:]
		f := protoField{num: int(tag >> 3), wire: int(tag & 7)}
		switch f.wire {
		case 0:
			v, n := readVarint(buf)
			if n == 0 {
				return nil, fmt.Errorf("pprof: bad varint in field %d", f.num)
			}
			f.v, buf = v, buf[n:]
		case 1:
			if len(buf) < 8 {
				return nil, fmt.Errorf("pprof: short fixed64 in field %d", f.num)
			}
			buf = buf[8:]
		case 2:
			l, n := readVarint(buf)
			if n == 0 || uint64(len(buf)-n) < l {
				return nil, fmt.Errorf("pprof: bad length in field %d", f.num)
			}
			f.b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return nil, fmt.Errorf("pprof: short fixed32 in field %d", f.num)
			}
			buf = buf[4:]
		default:
			return nil, fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// repeatedVarints decodes a repeated integer field, which the writer may
// emit packed (one length-delimited run) or one value per field.
func repeatedVarints(f protoField, into []uint64) []uint64 {
	if f.wire == 0 {
		return append(into, f.v)
	}
	for buf := f.b; len(buf) > 0; {
		v, n := readVarint(buf)
		if n == 0 {
			break
		}
		into, buf = append(into, v), buf[n:]
	}
	return into
}

// cpuSample is one profile sample: the call stack from the leaf outwards
// as function names, and the CPU time it stands for.
type cpuSample struct {
	stack []string
	nanos int64
}

// parseCPUProfile decodes a runtime/pprof CPU profile.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	top, err := readFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]int64{}    // function id -> string index
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	type rawSample struct{ locs, vals []uint64 }
	var samples []rawSample
	for _, f := range top {
		switch f.num {
		case 2: // Sample
			fs, err := readFields(f.b)
			if err != nil {
				return nil, err
			}
			var s rawSample
			for _, sf := range fs {
				switch sf.num {
				case 1:
					s.locs = repeatedVarints(sf, s.locs)
				case 2:
					s.vals = repeatedVarints(sf, s.vals)
				}
			}
			samples = append(samples, s)
		case 4: // Location
			fs, err := readFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.v
				case 4: // Line
					ls, err := readFields(lf.b)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fns = append(fns, l.v)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			fs, err := readFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.v
				case 2:
					name = int64(ff.v)
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.b))
		}
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		cs := cpuSample{nanos: int64(s.vals[len(s.vals)-1])} // [samples/count, cpu/nanoseconds]
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx >= 0 && int(idx) < len(strs) {
					cs.stack = append(cs.stack, strs[idx])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// funcPackage returns the import path of a profile function name:
// "repro/internal/dn.(*Tree).Cycle" -> "repro/internal/dn".
func funcPackage(fn string) string {
	fn, _, _ = strings.Cut(fn, "[") // type arguments may hold import paths of their own
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// Stack frames that mark a sample as garbage collection or allocation work
// whichever package's code triggered it.
var (
	gcFrames     = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcMarkTermination", "runtime.gcDrain"}
	mallocFrames = []string{"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice"}
)

// packageLayers maps an import path to the layer name a profile share is
// reported under; standard-library code the serving path leans on gets a
// runtime.* name.
var packageLayers = map[string]string{
	"main":              "bench",
	"repro/bench":       "bench",
	"repro/stonne":      "stonne",
	"encoding/json":     "runtime.encoding_json",
	"net/http":          "runtime.net_http",
	"net/http/httptest": "runtime.net_http",
	"net/textproto":     "runtime.net_http",
}

// layerOfPackage names the layer an import path belongs to ("" for code
// that belongs to no named layer, such as the rest of the runtime).
func layerOfPackage(pkg string) string {
	if l, ok := packageLayers[pkg]; ok {
		return l
	}
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		name, _, _ := strings.Cut(rest, "/")
		return name
	}
	return ""
}

// sampleLayer attributes one sample to a layer: collection and allocation
// work first (by any frame of the stack), otherwise the innermost frame
// that belongs to a named layer, so a map access or memmove is charged to
// the package that asked for it.
func sampleLayer(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if fn == g {
				return "runtime.gc"
			}
		}
	}
	for _, fn := range stack {
		if l := layerOfPackage(funcPackage(fn)); l != "" {
			return l
		}
		for _, m := range mallocFrames {
			if fn == m {
				return "runtime.malloc"
			}
		}
	}
	return "runtime.other"
}

// share is one row of a ranked profile table.
type share struct {
	Name  string  `json:"name"`
	Share float64 `json:"share"`
}

// foldProfile returns the share of CPU time per layer and the flat share
// of the top functions, both ranked.
func foldProfile(samples []cpuSample, topFuncs int) (layers map[string]float64, funcs []share) {
	layers = map[string]float64{}
	flat := map[string]int64{}
	var total int64
	for _, s := range samples {
		if len(s.stack) == 0 {
			continue
		}
		total += s.nanos
		layers[sampleLayer(s.stack)] += float64(s.nanos)
		flat[s.stack[0]] += s.nanos
	}
	if total == 0 {
		return layers, nil
	}
	for k := range layers {
		layers[k] /= float64(total)
	}
	names := make([]string, 0, len(flat))
	for fn := range flat {
		names = append(names, fn)
	}
	sort.Slice(names, func(i, j int) bool {
		if flat[names[i]] != flat[names[j]] {
			return flat[names[i]] > flat[names[j]]
		}
		return names[i] < names[j]
	})
	if len(names) > topFuncs {
		names = names[:topFuncs]
	}
	for _, fn := range names {
		funcs = append(funcs, share{Name: fn, Share: float64(flat[fn]) / float64(total)})
	}
	return layers, funcs
}

// rankedLayers orders layer shares largest first.
func rankedLayers(layers map[string]float64) []share {
	out := make([]share, 0, len(layers))
	for name, v := range layers {
		out = append(out, share{Name: name, Share: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share > out[j].Share {
			return true
		}
		return !(out[i].Share < out[j].Share) && out[i].Name < out[j].Name
	})
	return out
}
