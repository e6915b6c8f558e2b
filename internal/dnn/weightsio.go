package dnn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/tensor"
)

// Weights file format (the .pb stand-in of Fig. 2): a little-endian binary
// with a magic header and one record per layer:
//
//	magic "STNW" | u32 version | u32 layerCount
//	per layer: u32 nameLen | name | u32 rank | u32 dims... | f32 data...
//
// Records are sorted by layer name so files are byte-reproducible.

const (
	weightsMagic   = "STNW"
	weightsVersion = 1
)

// Save writes all weight tensors to w.
func (ws *Weights) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(weightsMagic); err != nil {
		return err
	}
	names := ws.LayerNames()
	writeU32 := func(v uint32) error { return binary.Write(bw, binary.LittleEndian, v) }
	if err := writeU32(weightsVersion); err != nil {
		return err
	}
	if err := writeU32(uint32(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		t := ws.ByLayer[name]
		if err := writeU32(uint32(len(name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(name); err != nil {
			return err
		}
		shape := t.Shape()
		if err := writeU32(uint32(len(shape))); err != nil {
			return err
		}
		for _, d := range shape {
			if err := writeU32(uint32(d)); err != nil {
				return err
			}
		}
		for _, v := range t.Data() {
			if err := writeU32(math.Float32bits(v)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// SaveFile writes the weights to a file path.
func (ws *Weights) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dnn: %w", err)
	}
	defer f.Close()
	if err := ws.Save(f); err != nil {
		return fmt.Errorf("dnn: save weights %s: %w", path, err)
	}
	return nil
}

// LoadWeights reads a weights file written by Save.
func LoadWeights(r io.Reader) (*Weights, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("dnn: weights header: %w", err)
	}
	if string(magic) != weightsMagic {
		return nil, fmt.Errorf("dnn: not a weights file (magic %q)", magic)
	}
	readU32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(br, binary.LittleEndian, &v)
		return v, err
	}
	version, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("dnn: weights file truncated in header (version): %w", err)
	}
	if version != weightsVersion {
		return nil, fmt.Errorf("dnn: unsupported weights version %d", version)
	}
	count, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("dnn: weights file truncated in header (layer count): %w", err)
	}
	const maxLayers = 1 << 20
	if count > maxLayers {
		return nil, fmt.Errorf("dnn: weights file claims %d layers", count)
	}
	ws := &Weights{ByLayer: make(map[string]*tensor.Tensor, count)}
	for i := uint32(0); i < count; i++ {
		nameLen, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("dnn: weights file truncated at layer %d/%d (name length): %w", i+1, count, err)
		}
		if nameLen > 4096 {
			return nil, fmt.Errorf("dnn: layer name length %d", nameLen)
		}
		nameBytes := make([]byte, nameLen)
		if _, err := io.ReadFull(br, nameBytes); err != nil {
			return nil, fmt.Errorf("dnn: weights file truncated at layer %d/%d (name): %w", i+1, count, err)
		}
		rank, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("dnn: weights file truncated in layer %s (rank): %w", nameBytes, err)
		}
		if rank == 0 || rank > 8 {
			return nil, fmt.Errorf("dnn: layer %s rank %d", nameBytes, rank)
		}
		// The element count accumulates in 64 bits with an early bail so a
		// corrupt header cannot overflow int or provoke a giant allocation.
		const maxElems = 1 << 30
		shape := make([]int, rank)
		n := int64(1)
		for d := range shape {
			v, err := readU32()
			if err != nil {
				return nil, fmt.Errorf("dnn: weights file truncated in layer %s (dim %d): %w", nameBytes, d, err)
			}
			if v == 0 || int64(v) > maxElems {
				return nil, fmt.Errorf("dnn: layer %s dim %d is %d", nameBytes, d, v)
			}
			shape[d] = int(v)
			n *= int64(v)
			if n > maxElems {
				return nil, fmt.Errorf("dnn: layer %s exceeds %d elements", nameBytes, int64(maxElems))
			}
		}
		data := make([]float32, n)
		for j := range data {
			bits, err := readU32()
			if err != nil {
				return nil, fmt.Errorf("dnn: weights file truncated in layer %s (element %d of %d): %w", nameBytes, j, n, err)
			}
			data[j] = math.Float32frombits(bits)
		}
		t, err := tensor.FromSlice(data, shape...)
		if err != nil {
			return nil, fmt.Errorf("dnn: layer %s: %w", nameBytes, err)
		}
		ws.ByLayer[string(nameBytes)] = t
	}
	return ws, nil
}

// LoadWeightsFile reads weights from a file path.
func LoadWeightsFile(path string) (*Weights, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dnn: %w", err)
	}
	defer f.Close()
	ws, err := LoadWeights(f)
	if err != nil {
		return nil, fmt.Errorf("dnn: load weights %s: %w", path, err)
	}
	return ws, nil
}

// CheckWeights verifies the weight set covers every weighted layer of the
// model with the right shapes.
func CheckWeights(m *Model, ws *Weights) error {
	for i := range m.Layers {
		l := &m.Layers[i]
		switch l.Kind {
		case Conv:
			t, ok := ws.ByLayer[l.Name]
			if !ok {
				return fmt.Errorf("dnn: missing weights for conv %s", l.Name)
			}
			cs := l.Conv
			want := []int{cs.K, cs.C / cs.G, cs.R, cs.S}
			if !shapeEqual(t.Shape(), want) {
				return fmt.Errorf("dnn: conv %s weights %v, want %v", l.Name, t.Shape(), want)
			}
		case Linear:
			t, ok := ws.ByLayer[l.Name]
			if !ok {
				return fmt.Errorf("dnn: missing weights for linear %s", l.Name)
			}
			if !shapeEqual(t.Shape(), []int{l.Out, l.In}) {
				return fmt.Errorf("dnn: linear %s weights %v, want [%d %d]", l.Name, t.Shape(), l.Out, l.In)
			}
		}
	}
	return nil
}

func shapeEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
