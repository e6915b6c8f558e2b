// Command bench is the repository's benchmark: eight workloads over the
// simulator and its serving layer, each run once untraced for the
// end-to-end metrics and once traced for the per-layer metrics, with every
// output checked. See README.md beside this file.
//
//	go run -C bench . --workload model-flex --seed 1 --seconds 8 --trace 0
//	go run -C bench . > report.json             # every workload, both passes
//	go run -C bench . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setUp builds the inputs from the seed and the system under test, and
	// runs one untimed warm-up iteration. It is called several times in a
	// run so that set-up time is a median; the last call's state is the
	// one measured.
	setUp(seed uint64) error
	// measure is the untraced pass: it fills the end-to-end metrics.
	measure(d time.Duration, o *outcome) error
	// traced is the traced pass: it fills the per-layer metrics.
	traced(d time.Duration, o *outcome) error
	// tearDown releases what the last setUp acquired.
	tearDown()
	// procs is how many Ps the pass runs on.
	procs(trace bool) int
}

// outcome collects what one run of one workload produced.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	extra             map[string]any
	failures          []string
	profileLayers     []share
	profileFuncs      []share
	spans             []span
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, extra: map[string]any{}}
}

// fail counts one failed operation and keeps the first few descriptions.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// Faults a test can inject to prove the correctness gate is live.
const (
	faultNone   = ""
	faultOutput = "output" // corrupt one element of a simulated output
	faultBody   = "body"   // expect a different body than the server pre-warmed
)

var faultInjected = faultNone

// A run sets up at least minSetups times and, while set-ups are cheap,
// until they have taken setupBudget or there are maxSetups of them;
// setup_s is the median.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 1500 * time.Millisecond
)

// scratchRoot is where a run keeps its temporary files: inside the
// checkout, never the system temp directory.
const scratchRoot = ".bench_build"

func isPerLayer(name string) bool {
	for _, d := range perLayerCatalog {
		if d.Name == name {
			return true
		}
	}
	return false
}

func findWorkload(name string, smoke bool) workload {
	for _, w := range simWorkloads(smoke) {
		if w.name == name {
			return w
		}
	}
	for _, w := range serveWorkloads(smoke) {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runOne runs one pass of one workload in this process.
func runOne(name string, seed uint64, seconds float64, trace, smoke bool) (*outcome, error) {
	w := findWorkload(name, smoke)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	// The gated pass has one P, and the rest of the host is the host's. A
	// simulation is sequential and sweeps run one per core (simpool), so
	// one P is how the simulator runs at scale, and the serve workloads
	// then gate the CPU cost of a request. It is also what makes the gated
	// numbers repeat: on the 2-vCPU reference machine, run-to-run spread
	// fell from 10-25% to 2-6%. What concurrent requests do to each other
	// is measured where no bound hangs on it: the traced pass of the serve
	// workloads has every P and a client on each.
	procs := w.procs(trace)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	o := newOutcome()
	o.extra["gomaxprocs"] = procs
	least, most := minSetups, maxSetups
	if trace || smoke {
		least, most = 1, 1
	}
	var setups []float64
	began := time.Now()
	for rep := 0; rep < least || (rep < most && time.Since(began) < setupBudget); rep++ {
		if rep > 0 {
			w.tearDown()
		}
		t0 := time.Now()
		if err := w.setUp(seed); err != nil {
			w.tearDown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.tearDown()
	d := time.Duration(seconds * float64(time.Second))
	var err error
	if trace {
		for _, def := range perLayerCatalog {
			o.metrics[def.Name] = 0
		}
		err = w.traced(d, o)
	} else {
		o.metrics["setup_s"] = median(setups)
		err = w.measure(d, o)
		o.extra["peak_rss_mb"] = peakRSSMB()
	}
	o.extra["failed_share"] = ratio(float64(o.failed), float64(o.attempted))
	return o, err
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detailFile is what --detail writes beside the result line: the values
// outside the gated set, failure descriptions, the ranked profile and the
// spans.
type detailFile struct {
	Workload      string         `json:"workload"`
	Seed          uint64         `json:"seed"`
	Trace         bool           `json:"trace"`
	WallS         float64        `json:"wall_s"`
	Result        resultLine     `json:"result"`
	Extra         map[string]any `json:"extra"`
	Failures      []string       `json:"failures,omitempty"`
	ProfileLayers []share        `json:"profile_layers,omitempty"`
	ProfileFuncs  []share        `json:"profile_funcs,omitempty"`
	Spans         []span         `json:"spans,omitempty"`
}

func unitOf(name string) string {
	for _, d := range endToEndCatalog {
		if d.Name == name {
			return d.Unit
		}
	}
	for _, d := range perLayerCatalog {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

func (o *outcome) line() resultLine {
	l := resultLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for name, v := range o.metrics {
		l.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	}
	return l
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	detail   string
	runs     int
	compare  bool
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "run this one workload in this process (empty: every workload, each in a child process)")
	flag.Uint64Var(&opt.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&opt.seconds, "seconds", 8, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	flag.BoolVar(&opt.smoke, "smoke", false, "shrink every workload to under a second (for tests; numbers mean nothing)")
	flag.StringVar(&opt.detail, "detail", "", "also write extras, failures, profile and spans of a single-workload run to this file")
	flag.IntVar(&opt.runs, "runs", 5, "full run: untraced runs per workload, each with the next seed")
	flag.BoolVar(&opt.compare, "compare", false, "compare two reports given as arguments; exit 1 on any regressed row or changed exact value")
	flag.Parse()
	opt.trace = trace != 0
	if err := run(opt, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(opt options, args []string) error {
	switch {
	case opt.compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two report files")
		}
		regressed, changed, err := compareReports(os.Stdout, args[0], args[1])
		if err != nil {
			return err
		}
		if regressed+changed > 0 {
			return fmt.Errorf("%d rows regressed, %d exact values changed", regressed, changed)
		}
		return nil
	case opt.workload == "":
		return fullRun(os.Stdout, opt)
	}
	began := time.Now()
	o, err := runOne(opt.workload, opt.seed, opt.seconds, opt.trace, opt.smoke)
	if o != nil {
		for _, f := range o.failures {
			fmt.Fprintln(os.Stderr, "bench: failed:", f)
		}
	}
	if err != nil {
		return err // no result line: the run did not produce its metrics
	}
	line := o.line()
	if opt.detail != "" {
		d := detailFile{
			Workload: opt.workload, Seed: opt.seed, Trace: opt.trace, WallS: time.Since(began).Seconds(),
			Result: line, Extra: o.extra, Failures: o.failures,
			ProfileLayers: o.profileLayers, ProfileFuncs: o.profileFuncs, Spans: o.spans,
		}
		if err := writeJSONFile(opt.detail, d); err != nil {
			return err
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// sortedKeys returns the keys of m in order, for every walk that feeds a
// report.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
