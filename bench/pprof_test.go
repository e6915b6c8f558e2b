package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var profileSink float64

func spinForProfile(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 1; i < 20000; i++ {
			profileSink += math.Sqrt(float64(i))
		}
	}
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, here int64
	for _, s := range samples {
		total += s.nanos
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spinForProfile") {
				here += s.nanos
				break
			}
		}
	}
	if total < int64(100*time.Millisecond) {
		t.Fatalf("profile holds %v of CPU time, want most of the 300 ms spun", time.Duration(total))
	}
	// Under the race detector the clock reads inside the spin sample as
	// frames with no Go caller; a quarter is enough to show stacks decode.
	if float64(here) < 0.25*float64(total) {
		t.Errorf("spinForProfile is on %v of %v sampled: stacks are not decoded", time.Duration(here), time.Duration(total))
	}
	layers, funcs := foldProfile(samples, 5)
	if layers["bench"] < 0.25 {
		t.Errorf("layers %v: the spin belongs to the benchmark's own package", layers)
	}
	if len(funcs) == 0 || len(funcs) > 5 {
		t.Errorf("%d top functions, want 1..5", len(funcs))
	}
	var sum float64
	for _, s := range rankedLayers(layers) {
		sum += s.Share
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("layer shares sum to %v, want 1: every sample has exactly one owner", sum)
	}
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

func TestSampleAttribution(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "repro/internal/dn.(*Tree).Cycle", "repro/internal/engine.(*flexDenseRunner).RunGEMM"}, "dn"},
		{[]string{"runtime.mallocgc", "runtime.makeslice", "repro/internal/tensor.New"}, "runtime.malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.gcAssistAlloc", "repro/internal/mn.(*Array).Deliver"}, "runtime.gc"},
		{[]string{"encoding/json.(*decodeState).object", "repro/internal/serve.(*Server).handleJobs"}, "runtime.encoding_json"},
		{[]string{"crypto/sha256.block", "repro/internal/jobkey.Job.Hash"}, "jobkey"},
		{[]string{"repro/internal/simpool.Map[go.shape.struct { repro/internal/engine.Design string }]"}, "simpool"},
		{[]string{"repro/internal/comp/names.init"}, "comp"},
		{[]string{"main.(*spanRecorder).begin"}, "bench"},
		{[]string{"repro/stonne.RunModel"}, "stonne"},
		{[]string{"runtime.futex", "runtime.mcall"}, "runtime.other"},
	}
	for _, c := range cases {
		if got := sampleLayer(c.stack); got != c.want {
			t.Errorf("%v -> %q, want %q", c.stack, got, c.want)
		}
	}
}
