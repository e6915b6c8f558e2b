package dnn

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/tensor"
)

// This file is the standalone model front end — the role the Caffe path
// plays in the original tool: models described in a file rather than in
// framework code. The format is a JSON layer list with shape inference:
// input channel counts and linear fan-ins are derived by propagating the
// activation shape, so descriptions stay close to what a prototxt gives.
//
//	{
//	  "name": "lenet", "input_channels": 1, "input_size": 28,
//	  "sparsity": 0.5,
//	  "layers": [
//	    {"type": "conv", "name": "c1", "filters": 8, "kernel": 5, "pad": 2},
//	    {"type": "relu"},
//	    {"type": "maxpool", "window": 2, "stride": 2},
//	    {"type": "conv", "name": "c2", "filters": 16, "kernel": 3, "pad": 1, "save": "skip"},
//	    {"type": "relu"},
//	    {"type": "linear", "name": "fc", "out": 10},
//	    {"type": "softmax"}
//	  ]
//	}

// LayerSpec is one entry of the file's layer list.
type LayerSpec struct {
	Type string `json:"type"`
	Name string `json:"name,omitempty"`

	// conv parameters
	Filters int `json:"filters,omitempty"`
	Kernel  int `json:"kernel,omitempty"`
	Stride  int `json:"stride,omitempty"`
	Pad     int `json:"pad,omitempty"`
	Groups  int `json:"groups,omitempty"`
	// Depthwise is shorthand for groups == channels == filters.
	Depthwise bool `json:"depthwise,omitempty"`

	// pool parameters
	Window int `json:"window,omitempty"`

	// linear parameters
	Out int `json:"out,omitempty"`

	// skip-connection plumbing
	Save     string `json:"save,omitempty"`
	From     string `json:"from,omitempty"`
	Detached bool   `json:"detached,omitempty"`
}

// ModelSpec is the file's top-level object.
type ModelSpec struct {
	Name          string      `json:"name"`
	InputChannels int         `json:"input_channels"`
	InputSize     int         `json:"input_size"`
	Sparsity      float64     `json:"sparsity,omitempty"`
	Layers        []LayerSpec `json:"layers"`
}

// ParseModel reads a JSON model description and builds the Model graph,
// inferring every shape the file leaves implicit.
func ParseModel(r io.Reader) (*Model, error) {
	var spec ModelSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("dnn: parse model file: %w", err)
	}
	return BuildModel(&spec)
}

// LoadModelFile parses a model description from a file path.
func LoadModelFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dnn: %w", err)
	}
	defer f.Close()
	m, err := ParseModel(f)
	if err != nil {
		return nil, fmt.Errorf("dnn: %s: %w", path, err)
	}
	return m, nil
}

// BuildModel turns a spec into a validated Model.
func BuildModel(spec *ModelSpec) (*Model, error) {
	switch {
	case spec.Name == "":
		return nil, fmt.Errorf("dnn: model file needs a name")
	case spec.InputChannels <= 0 || spec.InputSize <= 0:
		return nil, fmt.Errorf("dnn: model %s needs positive input_channels and input_size", spec.Name)
	case len(spec.Layers) == 0:
		return nil, fmt.Errorf("dnn: model %s has no layers", spec.Name)
	case spec.Sparsity < 0 || spec.Sparsity >= 1:
		return nil, fmt.Errorf("dnn: model %s sparsity %v out of [0,1)", spec.Name, spec.Sparsity)
	}
	m := &Model{
		Name: spec.Name, Short: spec.Name, Domain: "custom",
		Sparsity: spec.Sparsity,
		InputC:   spec.InputChannels, InputXY: spec.InputSize,
	}
	// Shape inference state: channels c, spatial x, flattened width flat
	// (0 while the activation is spatial). Saved shapes track skip
	// branches.
	c, x := spec.InputChannels, spec.InputSize
	flat := 0
	type savedShape struct{ c, x int }
	saved := map[string]savedShape{}
	autoNames := 0
	name := func(s *LayerSpec, kind string) string {
		if s.Name != "" {
			return s.Name
		}
		autoNames++
		return fmt.Sprintf("%s%d", kind, autoNames)
	}

	for i := range spec.Layers {
		s := &spec.Layers[i]
		switch s.Type {
		case "conv":
			if flat != 0 {
				return nil, fmt.Errorf("dnn: layer %d: conv after flatten", i)
			}
			if s.Filters <= 0 || s.Kernel <= 0 {
				return nil, fmt.Errorf("dnn: layer %d: conv needs filters and kernel", i)
			}
			stride := s.Stride
			if stride == 0 {
				stride = 1
			}
			g := s.Groups
			if g == 0 {
				g = 1
			}
			filters := s.Filters
			if s.Depthwise {
				g, filters = c, c
			}
			l := Layer{
				Name: name(s, "conv"), Kind: Conv, Class: ClassC,
				Conv: tensor.ConvShape{
					R: s.Kernel, S: s.Kernel, C: c, G: g, K: filters, N: 1,
					X: x, Y: x, Stride: stride, Padding: s.Pad,
				},
				SaveAs: s.Save, Detached: s.Detached,
			}
			if s.Depthwise {
				l.Class = ClassFC
			}
			if err := l.Conv.Validate(); err != nil {
				return nil, fmt.Errorf("dnn: layer %d (%s): %w", i, l.Name, err)
			}
			m.Layers = append(m.Layers, l)
			if s.Detached {
				if s.Save == "" {
					return nil, fmt.Errorf("dnn: layer %d: detached conv needs save", i)
				}
				saved[s.Save] = savedShape{c: filters, x: l.Conv.OutX()}
				continue
			}
			c, x = filters, l.Conv.OutX()
			if s.Save != "" {
				saved[s.Save] = savedShape{c: c, x: x}
			}
		case "relu", "batchnorm", "softmax":
			kind := map[string]Kind{"relu": ReLU, "batchnorm": BatchNorm, "softmax": Softmax}[s.Type]
			m.Layers = append(m.Layers, Layer{Name: name(s, s.Type), Kind: kind, Class: ClassNA, SaveAs: s.Save})
			if s.Save != "" {
				saved[s.Save] = savedShape{c: c, x: x}
			}
		case "maxpool", "avgpool":
			if flat != 0 {
				return nil, fmt.Errorf("dnn: layer %d: pool after flatten", i)
			}
			// A zero (omitted) stride is the window: non-overlapping pooling.
			p := PoolShape{Window: s.Window, Stride: s.Stride, Padding: s.Pad}
			if p.Stride == 0 {
				p.Stride = s.Window
			}
			nx, err := p.Out(x)
			if err != nil {
				return nil, fmt.Errorf("dnn: layer %d: %w", i, err)
			}
			kind := MaxPool
			if s.Type == "avgpool" {
				kind = AvgPool
			}
			m.Layers = append(m.Layers, Layer{Name: name(s, s.Type), Kind: kind, Class: ClassNA, Pool: p})
			x = nx
		case "linear":
			if s.Out <= 0 {
				return nil, fmt.Errorf("dnn: layer %d: linear needs out", i)
			}
			if flat == 0 {
				// Auto-insert the flatten a prototxt leaves implicit.
				m.Layers = append(m.Layers, Layer{Name: name(&LayerSpec{}, "flatten"), Kind: Flatten, Class: ClassNA})
				flat = c * x * x
			}
			m.Layers = append(m.Layers, Layer{
				Name: name(s, "linear"), Kind: Linear, Class: ClassL,
				In: flat, Out: s.Out,
			})
			flat = s.Out
		case "residual", "concat":
			if s.From == "" {
				return nil, fmt.Errorf("dnn: layer %d: %s needs from", i, s.Type)
			}
			sv, ok := saved[s.From]
			if !ok {
				return nil, fmt.Errorf("dnn: layer %d: %s references unsaved %q", i, s.Type, s.From)
			}
			kind := Residual
			if s.Type == "concat" {
				kind = Concat
			}
			m.Layers = append(m.Layers, Layer{
				Name: name(s, s.Type), Kind: kind, Class: ClassNA, SkipFrom: s.From,
			})
			if kind == Residual {
				if sv.c != c || sv.x != x {
					return nil, fmt.Errorf("dnn: layer %d: residual shapes differ (%dx%d vs %dx%d)", i, sv.c, sv.x, c, x)
				}
			} else {
				if sv.x != x {
					return nil, fmt.Errorf("dnn: layer %d: concat spatial sizes differ (%d vs %d)", i, sv.x, x)
				}
				c += sv.c
			}
		default:
			return nil, fmt.Errorf("dnn: layer %d: unknown type %q", i, s.Type)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
