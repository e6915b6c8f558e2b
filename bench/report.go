package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostInfo stamps a report with where and from what it was measured. The
// Ps a pass ran on are a property of the pass: "gomaxprocs" in its extras.
type hostInfo struct {
	CPUModel  string `json:"cpu_model"`
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	Commit    string `json:"commit"`
	Started   string `json:"started"`
}

func readHostInfo() hostInfo {
	h := hostInfo{
		CPUModel: "unknown", NProc: runtime.NumCPU(),
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH, Commit: "unknown",
		Started: time.Now().UTC().Format(time.RFC3339),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
		f.Close()
	}
	// A checkout that is not a git repository simply stays "unknown".
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// series is one end-to-end metric over the untraced runs of a workload.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

func (s *series) add(v float64) {
	s.Values = append(s.Values, v)
	s.Median = median(s.Values)
	s.Q1, s.Q3 = quartiles(s.Values)
}

// workloadReport is everything a full run learned about one workload.
type workloadReport struct {
	Name        string                 `json:"name"`
	WallS       float64                `json:"wall_s"` // all runs of this workload, both passes
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	FailedShare float64                `json:"failed_share"`
	EndToEnd    map[string]*series     `json:"end_to_end"`
	Extra       map[string][]any       `json:"extra"` // one entry per untraced run, in seed order
	PerLayer    map[string]metricValue `json:"per_layer"`
	TracedExtra map[string]any         `json:"traced_extra,omitempty"`
	Profile     []share                `json:"profile_layers,omitempty"`
	ProfileTop  []share                `json:"profile_funcs,omitempty"`
	Failures    []string               `json:"failures,omitempty"`
}

// report is the document a full run prints.
type report struct {
	Host      hostInfo          `json:"host"`
	Seed      uint64            `json:"seed"`
	Runs      int               `json:"runs"`
	Seconds   float64           `json:"seconds"`
	Smoke     bool              `json:"smoke,omitempty"`
	Workloads []*workloadReport `json:"workloads"`
}

// runChild runs one pass of one workload in a child process of this
// binary, so peak memory and the CPU profile belong to that workload
// alone, and returns what it printed and wrote.
func runChild(name string, seed uint64, seconds float64, trace, smoke bool) (*detailFile, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	detail := filepath.Join(scratchRoot, fmt.Sprintf("detail-%s-%d-%t.json", name, seed, trace))
	defer os.Remove(detail)
	args := []string{
		"--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--detail", detail,
	}
	if trace {
		args = append(args, "--trace", "1")
	}
	if smoke {
		args = append(args, "--smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	if _, err := cmd.Output(); err != nil {
		return nil, fmt.Errorf("%s (seed %d, trace %t): %w", name, seed, trace, err)
	}
	raw, err := os.ReadFile(detail)
	if err != nil {
		return nil, err
	}
	var d detailFile
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", detail, err)
	}
	return &d, nil
}

// fullRun runs every workload — `runs` untraced passes on consecutive
// seeds, then one traced pass — each in its own child process, and writes
// the report to w.
func fullRun(w io.Writer, opt options) error {
	seed, seconds, smoke := opt.seed, opt.seconds, opt.smoke
	rep := &report{Host: readHostInfo(), Seed: seed, Runs: opt.runs, Seconds: seconds, Smoke: smoke}
	for _, wd := range workloadCatalog {
		name := wd.Name
		began := time.Now()
		wr := &workloadReport{Name: name, EndToEnd: map[string]*series{}, Extra: map[string][]any{}, PerLayer: map[string]metricValue{}}
		for i := 0; i < opt.runs; i++ {
			d, err := runChild(name, seed+uint64(i), seconds, false, smoke)
			if err != nil {
				return err
			}
			wr.Attempted += d.Result.Attempted
			wr.Failed += d.Result.Failed
			wr.Failures = append(wr.Failures, d.Failures...)
			for _, def := range endToEndCatalog {
				mv, ok := d.Result.Metrics[def.Name]
				if !ok {
					return fmt.Errorf("%s did not report %s", name, def.Name)
				}
				if wr.EndToEnd[def.Name] == nil {
					wr.EndToEnd[def.Name] = &series{Unit: mv.Unit}
				}
				wr.EndToEnd[def.Name].add(mv.Value)
			}
			for _, k := range sortedKeys(d.Extra) {
				wr.Extra[k] = append(wr.Extra[k], d.Extra[k])
			}
		}
		d, err := runChild(name, seed, seconds, true, smoke)
		if err != nil {
			return err
		}
		wr.Attempted += d.Result.Attempted
		wr.Failed += d.Result.Failed
		wr.Failures = append(wr.Failures, d.Failures...)
		wr.PerLayer, wr.TracedExtra = d.Result.Metrics, d.Extra
		wr.Profile, wr.ProfileTop = d.ProfileLayers, d.ProfileFuncs
		wr.FailedShare = ratio(float64(wr.Failed), float64(wr.Attempted))
		wr.WallS = time.Since(began).Seconds()
		rep.Workloads = append(rep.Workloads, wr)
		fmt.Fprintf(os.Stderr, "bench: %-13s %6.1f s, %d/%d failed\n", name, wr.WallS, wr.Failed, wr.Attempted)
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

// Verdicts of one (workload, end-to-end metric) row of a comparison.
const (
	verdictSame       = "same"
	verdictRegressed  = "regressed"
	verdictImproved   = "improved"
	verdictUnresolved = "unresolved"
)

// worseBy returns by what share of a's median b's median is worse, for a
// metric whose better direction is given; negative means better.
func worseBy(a, b float64, better string) float64 {
	d := ratio(b-a, a)
	if better == "higher" {
		d = -d
	}
	return d
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []float64, better string) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if worseBy(x, y, better) >= 0 {
				return false
			}
		}
	}
	return true
}

// verdict judges one row: b against a under the metric's bound. A median
// inside the bound is the same whichever way it moved; one outside it is
// regressed or improved. The spread is the wider interquartile range of the
// two sets as a share of a's median; when it exceeds the bound the row
// cannot be resolved, unless every run of one side beats every run of the
// other (and, for a gain, the medians differ by more than a's own spread).
func verdict(a, b *series, def endToEndDef) string {
	spread := ratio(max(a.Q3-a.Q1, b.Q3-b.Q1), a.Median)
	worse := worseBy(a.Median, b.Median, def.Better)
	switch {
	case -worse > def.Bound && allBetter(a.Values, b.Values, def.Better) && math.Abs(b.Median-a.Median) > a.Q3-a.Q1:
		return verdictImproved
	case worse > def.Bound && allBetter(b.Values, a.Values, def.Better):
		return verdictRegressed
	case spread > def.Bound:
		return verdictUnresolved
	case worse > def.Bound:
		return verdictRegressed
	case -worse > def.Bound:
		return verdictImproved
	}
	return verdictSame
}

func loadReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// exactNames are the values a speed-only change must leave bit-identical.
var exactNames = []string{"sim_cycles", "stats_digest", "result_digest", "rtl_err_mean_pct", "rtl_err_max_pct"}

// rtlBoundPP is by how many percentage points an error against the RTL
// reference may rise before the change counts as a regression.
const rtlBoundPP = 0.05

// firstNumber returns the first value of an extra's per-run list as a
// number (exact values are the same on every run), or 0.
func firstNumber(perRun []any) float64 {
	if len(perRun) == 0 {
		return 0
	}
	v, _ := perRun[0].(float64)
	return v
}

// runSettings are what two reports must share to be compared.
type runSettings struct {
	Seed    uint64
	Runs    int
	Seconds float64
	Smoke   bool
}

func (r *report) settings() runSettings { return runSettings{r.Seed, r.Runs, r.Seconds, r.Smoke} }

func (r *report) workload(name string) *workloadReport {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// compareReports prints one row per workload and end-to-end metric that is
// a measurement of its own there, with both medians, quartiles and a
// verdict, then whether the exact values and the modelled-component counts
// are identical. It returns how many rows regressed — a timing past its
// bound, a workload missing from B, a rise in the failed share, an RTL error
// up by more than rtlBoundPP — and how many exact values changed: a
// speed-only change leaves every one identical, a modelling change has to
// state them, so either count fails the comparison.
func compareReports(w io.Writer, pathA, pathB string) (regressed, changed int, err error) {
	a, err := loadReport(pathA)
	if err != nil {
		return 0, 0, err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return 0, 0, err
	}
	if sa, sb := a.settings(), b.settings(); sa != sb {
		return 0, 0, fmt.Errorf("the reports were taken with different settings (%+v and %+v): measure both sides alike", sa, sb)
	}
	fmt.Fprintf(w, "A: %s  commit %s  %s  (%d runs of %g s)\n", pathA, a.Host.Commit, a.Host.CPUModel, a.Runs, a.Seconds)
	fmt.Fprintf(w, "B: %s  commit %s  %s  (%d runs of %g s)\n\n", pathB, b.Host.Commit, b.Host.CPUModel, b.Runs, b.Seconds)
	fmt.Fprintf(w, "%-13s %-17s %-9s %13s %27s %13s %27s %8s  %s\n",
		"workload", "metric", "unit", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "worse", "verdict")
	var exact bytes.Buffer
	for _, wd := range workloadCatalog {
		wa, wb := a.workload(wd.Name), b.workload(wd.Name)
		if wa == nil {
			continue // A is the baseline: what it does not have cannot regress
		}
		if wb == nil {
			fmt.Fprintf(w, "%-13s missing from B: %s\n", wd.Name, verdictRegressed)
			regressed++
			continue
		}
		for _, def := range endToEndCatalog {
			sa, sb := wa.EndToEnd[def.Name], wb.EndToEnd[def.Name]
			if !def.appliesTo(wd) || sa == nil || sb == nil {
				continue
			}
			v := verdict(sa, sb, def)
			if v == verdictRegressed {
				regressed++
			}
			fmt.Fprintf(w, "%-13s %-17s %-9s %13.6g %27s %13.6g %27s %+7.1f%%  %s\n",
				wa.Name, def.Name, def.Unit, sa.Median, fmt.Sprintf("[%.6g, %.6g]", sa.Q1, sa.Q3),
				sb.Median, fmt.Sprintf("[%.6g, %.6g]", sb.Q1, sb.Q3), 100*worseBy(sa.Median, sb.Median, def.Better), v)
		}
		if wa.Failed+wb.Failed > 0 {
			state := ""
			if wb.FailedShare > wa.FailedShare {
				state = ": " + verdictRegressed
				regressed++
			}
			fmt.Fprintf(w, "%-13s failed operations: A %d of %d, B %d of %d%s\n", wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted, state)
		}
		for _, name := range exactNames {
			if wa.Extra[name] == nil && wb.Extra[name] == nil {
				continue
			}
			state := "identical"
			if !reflect.DeepEqual(wa.Extra[name], wb.Extra[name]) {
				state = "CHANGED"
				changed++
				va, vb := firstNumber(wa.Extra[name]), firstNumber(wb.Extra[name])
				if strings.HasPrefix(name, "rtl_err_") {
					state = fmt.Sprintf("CHANGED: %.4g %% -> %.4g %%", va, vb)
					if vb > va+rtlBoundPP {
						state += ", " + verdictRegressed
						regressed++
					}
				}
			}
			fmt.Fprintf(&exact, "%-13s %-17s %s\n", wa.Name, name, state)
		}
		counts := 0
		for _, c := range modelledCounters {
			if wa.PerLayer[c.metric] != wb.PerLayer[c.metric] {
				counts++
			}
		}
		state := "identical"
		if counts > 0 {
			state = fmt.Sprintf("%d CHANGED", counts)
			changed += counts
		}
		fmt.Fprintf(&exact, "%-13s %-17s %s\n", wa.Name, "modelled counts", state)
	}
	fmt.Fprintf(w, "\nexact values (a speed-only change leaves these identical; a modelling change states them):\n%s", exact.String())
	fmt.Fprintf(w, "\n%d regressed, %d exact values changed\n", regressed, changed)
	return regressed, changed, nil
}
