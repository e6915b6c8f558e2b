package dnn

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const lenetJSON = `{
  "name": "lenet", "input_channels": 1, "input_size": 28, "sparsity": 0.5,
  "layers": [
    {"type": "conv", "name": "c1", "filters": 8, "kernel": 5, "pad": 2},
    {"type": "relu"},
    {"type": "maxpool", "window": 2},
    {"type": "conv", "name": "c2", "filters": 16, "kernel": 3, "pad": 1},
    {"type": "relu"},
    {"type": "linear", "name": "fc", "out": 10},
    {"type": "softmax"}
  ]
}`

func TestParseModelLeNet(t *testing.T) {
	m, err := ParseModel(strings.NewReader(lenetJSON))
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "lenet" || m.Sparsity != 0.5 {
		t.Errorf("metadata: %+v", m)
	}
	// c2 input channels inferred (8), fc fan-in inferred (16·14·14), and
	// the flatten auto-inserted.
	var c2, fc *Layer
	sawFlatten := false
	for i := range m.Layers {
		switch m.Layers[i].Name {
		case "c2":
			c2 = &m.Layers[i]
		case "fc":
			fc = &m.Layers[i]
		}
		if m.Layers[i].Kind == Flatten {
			sawFlatten = true
		}
	}
	if c2 == nil || c2.Conv.C != 8 || c2.Conv.X != 14 {
		t.Errorf("c2 inference: %+v", c2)
	}
	if fc == nil || fc.In != 16*14*14 || fc.Out != 10 {
		t.Errorf("fc inference: %+v", fc)
	}
	if !sawFlatten {
		t.Error("flatten not auto-inserted")
	}
	// The parsed model executes.
	w := InitWeights(m, 1)
	if _, err := (&Executor{Model: m, Weights: w}).Run(RandomInput(m, 2)); err != nil {
		t.Fatal(err)
	}
}

func TestParseModelResidualAndConcat(t *testing.T) {
	src := `{
	  "name": "skipnet", "input_channels": 4, "input_size": 8,
	  "layers": [
	    {"type": "conv", "name": "a", "filters": 4, "kernel": 3, "pad": 1, "save": "s"},
	    {"type": "conv", "name": "b", "filters": 4, "kernel": 3, "pad": 1},
	    {"type": "residual", "from": "s"},
	    {"type": "conv", "name": "side", "filters": 2, "kernel": 1, "detached": true, "save": "t"},
	    {"type": "conv", "name": "c", "filters": 2, "kernel": 1},
	    {"type": "concat", "from": "t"},
	    {"type": "relu"},
	    {"type": "linear", "out": 3}
	  ]
	}`
	m, err := ParseModel(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	w := InitWeights(m, 3)
	out, err := (&Executor{Model: m, Weights: w}).Run(RandomInput(m, 4))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Errorf("output %v", out.Shape())
	}
}

func TestParseModelDepthwise(t *testing.T) {
	src := `{
	  "name": "dw", "input_channels": 8, "input_size": 6,
	  "layers": [
	    {"type": "conv", "name": "d", "filters": 8, "kernel": 3, "pad": 1, "depthwise": true},
	    {"type": "linear", "out": 2}
	  ]
	}`
	m, err := ParseModel(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.Layers[0].Conv.G != 8 || m.Layers[0].Class != ClassFC {
		t.Errorf("depthwise: %+v", m.Layers[0])
	}
}

func TestParseModelErrors(t *testing.T) {
	cases := []string{
		`{}`,
		`{"name":"x","input_channels":1,"input_size":8,"layers":[]}`,
		`{"name":"x","input_channels":1,"input_size":8,"layers":[{"type":"bogus"}]}`,
		`{"name":"x","input_channels":1,"input_size":8,"layers":[{"type":"conv"}]}`,
		`{"name":"x","input_channels":1,"input_size":8,"layers":[{"type":"residual","from":"nope"}]}`,
		`{"name":"x","input_channels":1,"input_size":8,"layers":[{"type":"linear","out":2},{"type":"conv","filters":1,"kernel":1}]}`,
		`{"name":"x","input_channels":1,"input_size":8,"sparsity":1.5,"layers":[{"type":"linear","out":2}]}`,
		`{"name":"x","input_channels":1,"input_size":8,"layers":[{"type":"maxpool","window":20}]}`,
		`{"name":"x","unknown_field":1,"input_channels":1,"input_size":8,"layers":[{"type":"linear","out":2}]}`,
	}
	for i, src := range cases {
		if _, err := ParseModel(strings.NewReader(src)); err == nil {
			t.Errorf("case %d accepted:\n%s", i, src)
		}
	}
}

// FuzzParseModel drives bytes through the `stonne model -file` front end:
// ParseModel must never panic, and every conv layer of a model it accepts
// must be a valid conv shape. Seeds: the lenet of ParseModel's doc comment,
// the two-conv net of the CLI tests and this file's examples.
func FuzzParseModel(f *testing.F) {
	f.Add([]byte(`{
  "name": "lenet", "input_channels": 1, "input_size": 28,
  "sparsity": 0.5,
  "layers": [
    {"type": "conv", "name": "c1", "filters": 8, "kernel": 5, "pad": 2},
    {"type": "relu"},
    {"type": "maxpool", "window": 2, "stride": 2},
    {"type": "conv", "name": "c2", "filters": 16, "kernel": 3, "pad": 1, "save": "skip"},
    {"type": "relu"},
    {"type": "linear", "name": "fc", "out": 10},
    {"type": "softmax"}
  ]
}`))
	f.Add([]byte(`{"name": "net", "input_channels": 2, "input_size": 6, "sparsity": 0.5,
  "layers": [{"type": "conv", "name": "c1", "filters": 4, "kernel": 3}, {"type": "relu"},
    {"type": "conv", "name": "c2", "filters": 4, "kernel": 3}]}`))
	f.Add([]byte(lenetJSON))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := ParseModel(bytes.NewReader(b))
		if err != nil {
			return
		}
		for i := range m.Layers {
			if l := &m.Layers[i]; l.Kind == Conv {
				if err := l.Conv.Validate(); err != nil {
					t.Fatalf("accepted conv layer %s: %v", l.Name, err)
				}
			}
		}
	})
}

func TestLoadModelFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.json")
	if err := writeFile(path, lenetJSON); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModelFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModelFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestWeightsRoundTrip(t *testing.T) {
	m, err := ParseModel(strings.NewReader(lenetJSON))
	if err != nil {
		t.Fatal(err)
	}
	ws := InitWeights(m, 9)
	if err := ws.Prune(0.5); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ws.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadWeights(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.ByLayer) != len(ws.ByLayer) {
		t.Fatalf("layer count %d vs %d", len(got.ByLayer), len(ws.ByLayer))
	}
	for name, want := range ws.ByLayer {
		g, ok := got.ByLayer[name]
		if !ok {
			t.Fatalf("layer %s missing", name)
		}
		for i, v := range want.Data() {
			if g.Data()[i] != v {
				t.Fatalf("layer %s element %d differs", name, i)
			}
		}
	}
	if err := CheckWeights(m, got); err != nil {
		t.Fatal(err)
	}
}

func TestWeightsFileErrors(t *testing.T) {
	if _, err := LoadWeights(strings.NewReader("JUNKJUNKJUNK")); err == nil {
		t.Error("junk accepted")
	}
	if _, err := LoadWeights(strings.NewReader("STNW")); err == nil {
		t.Error("truncated file accepted")
	}
}

// A valid weights buffer truncated at every prefix length must come back
// as a descriptive error, never a panic or a silent partial load.
func TestLoadWeightsTruncatedPrefixes(t *testing.T) {
	tiny := `{"name":"t","input_channels":1,"input_size":6,"layers":[
	  {"type":"conv","name":"c1","filters":2,"kernel":3},
	  {"type":"linear","name":"fc","out":2}]}`
	m, err := ParseModel(strings.NewReader(tiny))
	if err != nil {
		t.Fatal(err)
	}
	ws := InitWeights(m, 5)
	var buf bytes.Buffer
	if err := ws.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		_, err := LoadWeights(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncated file of %d/%d bytes accepted", cut, len(full))
		}
		if !strings.Contains(err.Error(), "dnn:") {
			t.Fatalf("cut %d: error lacks package context: %v", cut, err)
		}
	}
	if _, err := LoadWeights(bytes.NewReader(full)); err != nil {
		t.Fatalf("untruncated buffer rejected: %v", err)
	}
}

// Targeted byte mutations of a valid weights file: each corrupted field is
// reported with layer context instead of panicking or over-allocating.
func TestLoadWeightsCorruptFields(t *testing.T) {
	m, err := ParseModel(strings.NewReader(lenetJSON))
	if err != nil {
		t.Fatal(err)
	}
	ws := InitWeights(m, 5)
	var buf bytes.Buffer
	if err := ws.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Layout: magic[0:4] | version[4:8] | count[8:12] |
	// record "c1": nameLen[12:16] | "c1"[16:18] | rank[18:22] | dims...
	mutate := func(off int, v uint32) []byte {
		b := append([]byte(nil), full...)
		b[off] = byte(v)
		b[off+1] = byte(v >> 8)
		b[off+2] = byte(v >> 16)
		b[off+3] = byte(v >> 24)
		return b
	}
	cases := []struct {
		name string
		data []byte
		want string // substring the error must carry
	}{
		{"bad magic", append([]byte("XXXX"), full[4:]...), "not a weights file"},
		{"bad version", mutate(4, 99), "version"},
		{"huge layer count", mutate(8, 1<<24), "layers"},
		{"huge name length", mutate(12, 1<<20), "name length"},
		{"zero rank", mutate(18, 0), "rank"},
		{"huge rank", mutate(18, 200), "rank"},
		{"zero dim", mutate(22, 0), "dim"},
		{"huge dim", mutate(22, 0x7fffffff), "dim"},
		// Dims that are individually legal but whose product overflows the
		// element budget must bail before allocating.
		{"overflow dim product", mutate(26, 1<<29), "elements"},
	}
	for _, tc := range cases {
		_, err := LoadWeights(bytes.NewReader(tc.data))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// Regression: pool layers with negative stride or padding used to flow into
// the output-size formula and corrupt downstream shape inference.
func TestParseModelNegativePoolParams(t *testing.T) {
	for _, layer := range []string{
		`{"type": "maxpool", "window": 2, "stride": -1}`,
		`{"type": "maxpool", "window": 2, "pad": -2}`,
		`{"type": "avgpool", "window": 2, "stride": -3, "pad": -1}`,
	} {
		src := `{"name":"x","input_channels":1,"input_size":8,"layers":[` + layer + `,{"type":"linear","out":2}]}`
		if _, err := ParseModel(strings.NewReader(src)); err == nil {
			t.Errorf("negative pool params accepted: %s", layer)
		}
	}
}

func TestCheckWeightsMismatch(t *testing.T) {
	m, _ := ParseModel(strings.NewReader(lenetJSON))
	ws := InitWeights(m, 9)
	delete(ws.ByLayer, "fc")
	if err := CheckWeights(m, ws); err == nil {
		t.Error("missing layer accepted")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
