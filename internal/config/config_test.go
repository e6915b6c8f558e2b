package config

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPresetsValidate(t *testing.T) {
	for _, hw := range []Hardware{
		TPULike(256), TPULike(16),
		MAERILike(256, 128), MAERILike(32, 4),
		SIGMALike(128, 128), SNAPEALike(64, 64),
	} {
		if err := hw.Validate(); err != nil {
			t.Errorf("%s: %v", hw.Name, err)
		}
	}
}

func TestTableIVCompositions(t *testing.T) {
	// Table IV of the paper: controller / DN / MN / RN per architecture.
	tpu := TPULike(256)
	if tpu.Ctrl != DenseCtrl || tpu.DN != PointToPointDN || tpu.MN != LinearMN || tpu.RN != LinearRN {
		t.Errorf("TPU composition wrong: %+v", tpu)
	}
	maeri := MAERILike(256, 128)
	if maeri.Ctrl != DenseCtrl || maeri.DN != TreeDN || maeri.MN != LinearMN ||
		(maeri.RN != ARTRN && maeri.RN != ARTAccRN) {
		t.Errorf("MAERI composition wrong: %+v", maeri)
	}
	sigma := SIGMALike(256, 128)
	if sigma.Ctrl != SparseCtrl || sigma.DN != BenesDN || sigma.MN != DisabledMN || sigma.RN != FANRN {
		t.Errorf("SIGMA composition wrong: %+v", sigma)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	// Each row breaks one field; the error must name it. The DRAM and clock
	// rows are every value internal/mem divides by: Validate is their only
	// check, so a description that passes it can never make the memory model
	// divide by zero or charge NaN/Inf cycles.
	cases := []struct {
		field  string
		mutate func(*Hardware)
	}{
		{"MSSize", func(h *Hardware) { *h = Hardware{} }},
		{"MSSize", func(h *Hardware) { h.MSSize = 0 }},
		{"MSSize", func(h *Hardware) { h.MSSize = 100 }}, // not a power of two
		{"DNBandwidth", func(h *Hardware) { h.DNBandwidth = 0 }},
		{"RNBandwidth", func(h *Hardware) { h.RNBandwidth = -1 }},
		{"GBSizeKB", func(h *Hardware) { h.GBSizeKB = 0 }},
		{"FIFODepth", func(h *Hardware) { h.FIFODepth = 0 }},
		{"BytesPerElement", func(h *Hardware) { h.BytesPerElement = 0 }},
		{"ClockGHz", func(h *Hardware) { h.ClockGHz = 0 }},
		{"ClockGHz", func(h *Hardware) { h.ClockGHz = -1 }},
		{"ClockGHz", func(h *Hardware) { h.ClockGHz = math.NaN() }},
		{"ClockGHz", func(h *Hardware) { h.ClockGHz = math.Inf(1) }},
		{"DRAM.BandwidthGBs", func(h *Hardware) { h.DRAM.BandwidthGBs = 0 }},
		{"DRAM.BandwidthGBs", func(h *Hardware) { h.DRAM.BandwidthGBs = math.NaN() }},
		{"DRAM.BandwidthGBs", func(h *Hardware) { h.DRAM.BandwidthGBs = math.Inf(1) }},
		{"DRAM.Modules", func(h *Hardware) { h.DRAM.Modules = 0 }},
		{"DRAM.Modules", func(h *Hardware) { h.DRAM.Modules = -2 }},
		{"DRAM.RowBytes", func(h *Hardware) { h.DRAM.RowBytes = 0 }},
		{"DRAM.RowBytes", func(h *Hardware) { h.BytesPerElement, h.DRAM.RowBytes = 4, 3 }}, // row smaller than an element
		{"DRAM.RowMissLatency", func(h *Hardware) { h.DRAM.RowMissLatency = -1 }},
	}
	for i, tc := range cases {
		hw := MAERILike(128, 32)
		tc.mutate(&hw)
		if err := hw.Validate(); err == nil {
			t.Errorf("case %d: invalid %s accepted", i, tc.field)
		} else if !strings.Contains(err.Error(), "config: "+tc.field+" ") {
			t.Errorf("case %d: error %q does not name %s", i, err, tc.field)
		}
	}
	// Controller/fabric compatibility (Section IV-B: "the configured
	// memory controller must always be compatible with the substrate").
	hw := SIGMALike(128, 64)
	hw.MN = LinearMN
	if err := hw.Validate(); err == nil {
		t.Error("sparse controller with Linear MN accepted")
	}
	hw2 := MAERILike(128, 64)
	hw2.DN = BenesDN
	if err := hw2.Validate(); err == nil {
		t.Error("dense controller on Benes accepted")
	}
	// The systolic composition (dense controller on the point-to-point DN)
	// is a √MSSize-square array fed from two full edges.
	starved := TPULike(128)
	if err := starved.Validate(); err == nil {
		t.Error("systolic array with a non-square PE count accepted")
	}
	starved = TPULike(256)
	starved.DNBandwidth = 31 // one short of 2·√256
	if err := starved.Validate(); err == nil {
		t.Error("systolic array below full edge bandwidth accepted")
	}
	starved.DNBandwidth = 32
	if err := starved.Validate(); err != nil {
		t.Errorf("systolic array at exactly full edge bandwidth rejected: %v", err)
	}
}

func TestFileRoundTrip(t *testing.T) {
	hw := MAERILike(64, 16)
	hw.Preloaded = true
	path := filepath.Join(t.TempDir(), "hw.cfg")
	if err := hw.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != hw {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, hw)
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.cfg")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestReadFileAcceptsRetiredKeys pins that hardware files outlive the
// fields they name: ReadFile is lenient by design (the strict decoder is the
// service's wire format), so a file WriteFile produced while
// AccumulationBuffer, DRAM.SizeMB and DRAM.RowHitLatency still existed —
// none of which any model ever read — loads as the same accelerator.
func TestReadFileAcceptsRetiredKeys(t *testing.T) {
	const written = `{
  "Name": "MAERI-like",
  "MSSize": 64,
  "DN": 0,
  "MN": 0,
  "RN": 1,
  "Ctrl": 0,
  "Dataflow": 1,
  "ForceDataflow": false,
  "DNBandwidth": 16,
  "RNBandwidth": 16,
  "GBSizeKB": 108,
  "FIFODepth": 4,
  "AccumulationBuffer": true,
  "SparseFormat": 0,
  "BytesPerElement": 1,
  "ClockGHz": 1,
  "Preloaded": true,
  "DisableFastForward": false,
  "DRAM": {
    "BandwidthGBs": 256,
    "Modules": 2,
    "SizeMB": 512,
    "RowHitLatency": 14,
    "RowMissLatency": 38,
    "RowBytes": 2048
  }
}`
	path := filepath.Join(t.TempDir(), "old.cfg")
	if err := os.WriteFile(path, []byte(written), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := MAERILike(64, 16)
	want.Preloaded = true
	if got != want {
		t.Errorf("old file loaded as\n %+v\nwant %+v", got, want)
	}
}

func TestReadFileValidates(t *testing.T) {
	hw := MAERILike(64, 16)
	hw.MSSize = 100 // invalid after the fact
	path := filepath.Join(t.TempDir(), "bad.cfg")
	if err := hw.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Error("invalid config file accepted")
	}
}

func TestStringers(t *testing.T) {
	if TreeDN.String() != "TN" || BenesDN.String() != "BN" || PointToPointDN.String() != "PoPN" {
		t.Error("DN strings")
	}
	if LinearMN.String() != "LMN" || DisabledMN.String() != "DMN" {
		t.Error("MN strings")
	}
	if ARTRN.String() != "ART" || ARTAccRN.String() != "ART+ACC" || FANRN.String() != "FAN" || LinearRN.String() != "LRN" {
		t.Error("RN strings")
	}
	if DenseCtrl.String() != "dense" || SparseCtrl.String() != "sparse" || SNAPEACtrl.String() != "snapea" {
		t.Error("ctrl strings")
	}
	if OutputStationary.String() != "OS" || WeightStationary.String() != "WS" || InputStationary.String() != "IS" {
		t.Error("dataflow strings")
	}
	if FmtBitmap.String() != "bitmap" || FmtCSR.String() != "csr" {
		t.Error("format strings")
	}
}
