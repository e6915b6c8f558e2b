package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalog")

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// catalogFile renders the catalog in BENCHMARK.json's shape.
func catalogFile() benchmarkFile {
	f := benchmarkFile{Command: []string{"go", "run", "-C", "bench", "."}, Paths: []string{"bench"}, RunSeconds: 8}
	for _, w := range workloadCatalog {
		f.Workloads = append(f.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.Name, w.Why})
	}
	for _, m := range endToEndCatalog {
		f.EndToEnd = append(f.EndToEnd, struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		}{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayerCatalog {
		f.PerLayer = append(f.PerLayer, struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		}{m.Name, m.Unit, m.Better})
	}
	return f
}

var (
	nameGrammar = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitGrammar = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesCatalog keeps the root BENCHMARK.json, the
// catalog and the contract's limits in step. Run with -update after
// changing the catalog.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want, err := json.MarshalIndent(catalogFile(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the catalog; run `go test -run BenchmarkJSON -update`", path)
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the limit is 64 KiB", len(got))
	}

	f := catalogFile()
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameGrammar.MatchString(n) {
			t.Errorf("%s name %q is outside the name grammar", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range f.Workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	setup := false
	for _, m := range f.EndToEnd {
		name("end-to-end", m.Name)
		if !unitGrammar.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range f.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("one end-to-end metric must be setup_s, in s, lower is better")
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range f.PerLayer {
		name("per-layer", m.Name)
		if !unitGrammar.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range perLayerCatalog {
		if m.Moves == "" {
			t.Errorf("%s: no prediction of what it moves", m.Name)
		}
	}
	for _, e := range extraNames {
		if seen[e] {
			t.Errorf("extra %q shadows a gated metric", e)
		}
	}
}

// smokeRun runs one pass of one workload at the smoke size in this process.
func smokeRun(t *testing.T, name string, trace bool) resultLine {
	t.Helper()
	o, err := runOne(name, 1, 0.05, trace, true)
	if err != nil {
		t.Fatalf("%s (trace %t): %v", name, trace, err)
	}
	for _, f := range o.failures {
		t.Logf("%s: %s", name, f)
	}
	return o.line()
}

// TestMain lets the test binary stand in for the benchmark's: a full run
// starts every pass as a child of its own executable, which under `go test`
// is this one.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_TEST_CHILD") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestFullRunSmoke drives the whole harness — both passes of every
// workload, shrunk, each in a child process, gathered into one report — and
// checks the report against the catalog: every gated metric by name with its
// unit and never zero, every per-layer metric by name with its unit, no
// failed operation. Comparing the report with itself must find nothing.
func TestFullRunSmoke(t *testing.T) {
	t.Setenv("BENCH_TEST_CHILD", "1")
	var out bytes.Buffer
	if err := fullRun(&out, options{seed: 1, seconds: 0.05, smoke: true, runs: 1}); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Host.NProc < 1 || rep.Host.GoVersion == "" || len(rep.Workloads) != len(workloadCatalog) {
		t.Fatalf("host %+v, %d workloads", rep.Host, len(rep.Workloads))
	}
	for i, w := range workloadCatalog {
		wr := rep.Workloads[i]
		if wr.Name != w.Name || wr.Failed != 0 || wr.Attempted < 2 || wr.WallS <= 0 {
			t.Errorf("%s: reported as %s, %d of %d failed: %v", w.Name, wr.Name, wr.Failed, wr.Attempted, wr.Failures)
		}
		if len(wr.EndToEnd) != len(endToEndCatalog) {
			t.Errorf("%s: untraced pass printed %d metrics, the catalog has %d", w.Name, len(wr.EndToEnd), len(endToEndCatalog))
		}
		for _, def := range endToEndCatalog {
			if m := wr.EndToEnd[def.Name]; m == nil || m.Unit != def.Unit || !(m.Median > 0) {
				t.Errorf("%s %s: reported %+v, want a positive value in %s", w.Name, def.Name, m, def.Unit)
			}
		}
		if len(wr.PerLayer) != len(perLayerCatalog) {
			t.Errorf("%s: traced pass printed %d metrics, the catalog has %d", w.Name, len(wr.PerLayer), len(perLayerCatalog))
		}
		for _, def := range perLayerCatalog {
			if m, ok := wr.PerLayer[def.Name]; !ok || m.Unit != def.Unit {
				t.Errorf("%s %s: reported %+v (present %v), want unit %s", w.Name, def.Name, m, ok, def.Unit)
			}
		}
		if wr.PerLayer["bench.samples"].Value < 1 || len(wr.Profile) == 0 {
			t.Errorf("%s: the traced pass timed or profiled nothing", w.Name)
		}
		if got := wr.Extra["gomaxprocs"]; len(got) != 1 || got[0] != 1.0 {
			t.Errorf("%s: the untraced pass ran on %v Ps, want 1", w.Name, got)
		}
	}

	path := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	if regressed, changed, err := compareReports(&table, path, path); err != nil || regressed+changed != 0 {
		t.Errorf("a report against itself: %d regressed, %d changed, %v\n%s", regressed, changed, err, table.String())
	}
}

// TestCorrectnessGateIsLive injects the two faults the output checks exist
// to catch and demands that each raises the failed count.
func TestCorrectnessGateIsLive(t *testing.T) {
	defer func() { faultInjected = faultNone }()
	for _, c := range []struct{ fault, workload string }{
		{faultOutput, "model-rigid"},  // one corrupted element of a model's scores
		{faultOutput, "gemm-starved"}, // one corrupted element of a GEMM output
		{faultOutput, "chip-4core"},
		{faultBody, "serve-warm"}, // a warm body that differs from the pre-warmed result
		{faultBody, "serve-disk"},
	} {
		faultInjected = c.fault
		line := smokeRun(t, c.workload, false)
		if line.Failed == 0 || line.Correct {
			t.Errorf("%s with an injected %s fault: %d of %d failed, correct %v — the gate is not live", c.workload, c.fault, line.Failed, line.Attempted, line.Correct)
		}
	}
}

func TestModelledCountersAreReal(t *testing.T) {
	// Every modelled-component metric must sum a counter the simulator
	// emits: a renamed counter would otherwise read as a silent zero.
	o, err := runOne("model-flex", 1, 0.05, true, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"dn.active_cycles", "mn.mults", "mn.fifo.pushes", "rn.active_cycles", "mem.gb.reads", "mem.gb.writes", "sched.rounds"} {
		if o.metrics[name] == 0 {
			t.Errorf("%s is 0 on model-flex: the counter behind it is gone", name)
		}
	}
	o, err = runOne("model-rigid", 1, 0.05, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if o.metrics["engine.snapea.saved_macs"] == 0 {
		t.Error("engine.snapea.saved_macs is 0 on model-rigid")
	}
}

func seriesOf(vals ...float64) *series {
	s := &series{}
	for _, v := range vals {
		s.add(v)
	}
	return s
}

func TestVerdicts(t *testing.T) {
	lower := endToEndDef{Name: "host_s", Better: "lower", Bound: 0.10}
	higher := endToEndDef{Name: "req_per_s", Better: "higher", Bound: 0.10}
	cases := []struct {
		name string
		a, b *series
		def  endToEndDef
		want string
	}{
		{"within the bound", seriesOf(1.00, 1.01, 0.99, 1.00, 1.02), seriesOf(1.03, 1.04, 1.02, 1.03, 1.05), lower, verdictSame},
		{"slower past the bound", seriesOf(1.00, 1.01, 0.99, 1.00, 1.02), seriesOf(1.20, 1.21, 1.19, 1.22, 1.20), lower, verdictRegressed},
		{"every run faster", seriesOf(1.00, 1.01, 0.99, 1.00, 1.02), seriesOf(0.80, 0.81, 0.79, 0.80, 0.82), lower, verdictImproved},
		{"every run faster, but inside the bound", seriesOf(1.00, 1.01, 0.99, 1.00, 1.02), seriesOf(0.93, 0.94, 0.92, 0.93, 0.95), lower, verdictSame},
		{"faster past the bound but for one run", seriesOf(1.00, 1.01, 0.99, 1.00, 1.02, 1.00, 1.01), seriesOf(0.80, 0.81, 0.79, 0.80, 0.82, 0.80, 1.00), lower, verdictImproved},
		{"spread wider than the bound", seriesOf(1.0, 1.3, 0.8, 1.1, 0.9), seriesOf(1.05, 1.35, 0.85, 1.15, 0.95), lower, verdictUnresolved},
		{"noisy and faster, runs overlapping", seriesOf(1.0, 1.3, 0.8, 1.1, 0.9), seriesOf(0.85, 1.15, 0.65, 0.95, 0.75), lower, verdictUnresolved},
		{"noisy but every run worse", seriesOf(1.0, 1.2, 0.9, 1.1, 1.0), seriesOf(2.0, 2.3, 1.9, 2.2, 2.1), lower, verdictRegressed},
		{"throughput fell", seriesOf(100, 101, 99, 100, 102), seriesOf(80, 81, 79, 80, 82), higher, verdictRegressed},
		{"throughput rose", seriesOf(100, 101, 99, 100, 102), seriesOf(130, 131, 129, 130, 132), higher, verdictImproved},
		{"throughput rose inside the bound", seriesOf(100, 101, 99, 100, 102), seriesOf(106, 107, 105, 106, 108), higher, verdictSame},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.def); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	type variant struct {
		host, rtl float64
		digest    string
		failed    int
	}
	base := variant{host: 1.0, rtl: 6.5, digest: "aa"}
	mk := func(v variant, workloads ...string) *report {
		r := &report{Runs: 3, Seconds: 8}
		for _, name := range workloads {
			wr := &workloadReport{
				Name: name, Attempted: 10, Failed: v.failed, FailedShare: float64(v.failed) / 10,
				EndToEnd: map[string]*series{},
				Extra:    map[string][]any{"stats_digest": {v.digest, v.digest, v.digest}, "rtl_err_mean_pct": {v.rtl, v.rtl, v.rtl}},
				PerLayer: map[string]metricValue{"mn.mults": {Value: 5, Unit: "count"}},
			}
			for _, def := range endToEndCatalog {
				wr.EndToEnd[def.Name] = seriesOf(1, 1.01, 0.99)
			}
			wr.EndToEnd["host_s"] = seriesOf(v.host, v.host*1.01, v.host*0.99)
			// On a simulator workload the latency restates host_s.
			wr.EndToEnd["latency_p50_ms"] = seriesOf(v.host*1000, v.host*1010, v.host*990)
			r.Workloads = append(r.Workloads, wr)
		}
		return r
	}
	dir := t.TempDir()
	files := 0
	write := func(r *report) string {
		files++
		p := filepath.Join(dir, fmt.Sprintf("%d.json", files))
		if err := writeJSONFile(p, r); err != nil {
			t.Fatal(err)
		}
		return p
	}
	both := []string{"model-flex", "tablev-rtl"}
	a := write(mk(base, both...))
	slow, wrong, failing, remodelled, less := base, base, base, base, base
	slow.host = 1.5
	wrong.rtl, wrong.digest = 6.7, "bb"
	failing.failed = 1
	remodelled.rtl, remodelled.digest = 6.2, "cc"
	less.host = 0.5
	for _, c := range []struct {
		name               string
		b                  *report
		regressed, changed int
		says               string
	}{
		{"a run within the bound", mk(variant{host: 1.02, rtl: 6.5, digest: "aa"}, both...), 0, 0, `stats_digest\s+identical`},
		// 50% slower: one regressed row for each workload, not one more for
		// the latency that restates host_s there.
		{"a slower host_s", mk(slow, both...), 2, 0, `host_s .* regressed`},
		{"a faster host_s", mk(less, both...), 0, 0, `host_s .* improved`},
		{"a larger error against RTL", mk(wrong, both...), 2, 4, `rtl_err_mean_pct\s+CHANGED: 6.5 % -> 6.7 %, regressed`},
		{"a smaller error against RTL", mk(remodelled, both...), 0, 4, `rtl_err_mean_pct\s+CHANGED: 6.5 % -> 6.2 %\n`},
		{"a new failed operation", mk(failing, both...), 2, 0, `failed operations: A 0 of 10, B 1 of 10: regressed`},
		{"a workload missing from B", mk(base, "model-flex"), 1, 0, `tablev-rtl\s+missing from B: regressed`},
	} {
		var out bytes.Buffer
		regressed, changed, err := compareReports(&out, a, write(c.b))
		if err != nil || regressed != c.regressed || changed != c.changed {
			t.Errorf("%s: %d regressed, %d changed, %v; want %d, %d\n%s", c.name, regressed, changed, err, c.regressed, c.changed, out.String())
		}
		if !regexp.MustCompile(c.says).MatchString(out.String()) {
			t.Errorf("%s: the table does not say %q:\n%s", c.name, c.says, out.String())
		}
		if strings.Contains(out.String(), "latency_p50_ms") {
			t.Errorf("%s: a latency row on a simulator workload, where it restates host_s:\n%s", c.name, out.String())
		}
	}
	other := mk(base, both...)
	other.Runs = 5
	if _, _, err := compareReports(io.Discard, a, write(other)); err == nil {
		t.Error("reports of 3 and of 5 runs compared without complaint")
	}
}
