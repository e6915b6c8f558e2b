// Package jobkey computes canonical, content-addressed keys for simulation
// jobs. Every run of this simulator is a pure function of its inputs — the
// parity and differential suites pin bit-determinism per architecture — so
// two jobs with the same key are guaranteed to produce byte-identical
// results, which is what makes the serving layer's result cache sound.
//
// The key is a SHA-256 over a canonical text encoding of the normalized
// job. Canonicalization is strict in both directions:
//
//   - Two spellings of the same job collide: struct fields are emitted in
//     sorted-name order (so the encoding never depends on declaration or
//     request-body field order), defaulted fields are filled in by
//     Normalize before hashing, and knobs proven not to affect results
//     (fast-forward, which is bit-exact by differential test) are erased.
//   - Any semantic difference separates: the encoding covers the resolved
//     architecture name and its NumericContract, the complete hardware
//     description (every exported, serializable field — new fields are
//     picked up automatically by reflection), the operation shape, the
//     explicit tile if any, the data seed, and the chip composition.
//
// Runtime-only fields tagged `json:"-"` (trace and progress hooks,
// shared-memory ports) are excluded: they carry callbacks, not semantics.
package jobkey

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"repro/internal/config"
	"repro/internal/mapper"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// Key is the content address of a job: the hex SHA-256 of its canonical
// encoding.
type Key string

// Contract is the architecture's numeric contract. A changed contract means
// the architecture's numeric behaviour was re-specified, so it must change
// the key even when nothing else did.
type Contract = sim.NumericContract

// Chip is the multi-core composition part of a job: how many cores, the
// placement policy, and the shared-DRAM shape — the placement/banks
// component of the cache key for chip runs. It is also the "chip" object of
// a service request; the canonical encoding reads field names, not tags.
type Chip struct {
	Cores     int     `json:"cores,omitempty"`
	Placement string  `json:"placement,omitempty"`
	Banks     int     `json:"banks,omitempty"`
	LinkGBs   float64 `json:"link_gbs,omitempty"`
	Streams   int     `json:"streams,omitempty"`
}

// Operation names a Job accepts.
const (
	OpGEMM  = "gemm"
	OpConv  = "conv"
	OpSpMM  = "spmm"
	OpModel = "model"
)

// Job is everything that determines a simulation's result. Build one from
// resolved values (after presets and defaults are applied), then call Key.
type Job struct {
	// Arch is the registered architecture name serving HW, and Contract its
	// numeric contract from the registry.
	Arch     string
	Contract Contract

	// HW is the complete hardware description the job runs on.
	HW config.Hardware

	// Op selects the operation: OpGEMM, OpConv, OpSpMM or OpModel.
	Op string

	// M, N, K are the GEMM/SpMM dims (ignored for conv/model).
	M, N, K int
	// Conv is the convolution shape (OpConv only).
	Conv tensor.ConvShape
	// Sparsity is the fraction of zeros pruned into the stationary operand
	// (OpSpMM only). Policy is the filter-scheduling policy name (OpSpMM and
	// OpModel: a model's sparse layers run under it).
	Sparsity float64
	Policy   string
	// Tile, when non-nil, is an explicit dense-controller tile overriding
	// the mapper (OpConv only).
	Tile *mapper.Tile

	// Seed derives the deterministic random operand data.
	Seed uint64
	// Batch runs seeds Seed..Seed+Batch-1 as independent jobs whose runs
	// are all part of the result (gemm/spmm/conv; a model job runs one
	// inference per chip stream).
	Batch int

	// Model is the built-in model short tag (OpModel only).
	Model string
	// Scale divides the model's spatial dimensions (OpModel only; 1 runs
	// the full-size model).
	Scale int
	// Chip is the chip composition (OpModel only; a single core with one
	// stream is the canonical non-chip form).
	Chip Chip
}

// Normalize returns the canonical form of the job: defaults filled in,
// fields that cannot affect this operation's result zeroed, and
// result-neutral knobs erased. Two requests that spell the same job
// differently normalize to identical values — the collision half of the
// canonicalization contract. It is the one statement of which fields each
// op reads: a runner given the normalized job reads nothing else, so a
// field erased here cannot change a result.
func (j Job) Normalize() Job {
	j.Op = strings.ToLower(strings.TrimSpace(j.Op))
	j.Batch = max(j.Batch, 1)
	// Fast-forward is bit-exact (pinned by the fastforward-vs-ticked
	// differential sweep), so a run with it disabled produces the same
	// bytes: erase the knob. Trace, Progress and SharedMem are runtime-only
	// and are already excluded from the encoding by their json:"-" tags.
	j.HW.DisableFastForward = false

	// Scheduling policy steers the sparse controller: an spmm's, and the
	// sparse layers of a model (whose sparsity is its Table I value).
	if j.Op == OpSpMM || j.Op == OpModel {
		j.Policy = cmp.Or(strings.ToUpper(strings.TrimSpace(j.Policy)), "NS")
	} else {
		j.Policy = ""
	}
	if j.Op != OpSpMM || j.Sparsity == 0 {
		// Also canonicalises -0, which prunes like 0 but prints as "-0".
		j.Sparsity = 0
	}
	if j.Op != OpConv {
		j.Conv = tensor.ConvShape{}
		j.Tile = nil
	}
	if j.Op != OpGEMM && j.Op != OpSpMM {
		j.M, j.N, j.K = 0, 0, 0
	}
	if j.Op != OpModel {
		j.Model = ""
		j.Scale = 0
		j.Chip = Chip{}
		return j
	}
	// A model job runs one inference per chip stream; batch is unread.
	j.Batch = 1
	j.Scale = max(j.Scale, 1)
	j.Chip.Cores = max(j.Chip.Cores, 1)
	j.Chip.Streams = max(j.Chip.Streams, 1)
	if j.Chip.Cores == 1 {
		// A 1-core chip builds no shared memory system at all: the
		// placement, bank count and link override have no effect.
		j.Chip.Placement, j.Chip.Banks, j.Chip.LinkGBs = "", 0, 0
		return j
	}
	j.Chip.Placement = cmp.Or(j.Chip.Placement, "layer")
	if j.Chip.Banks <= 0 {
		j.Chip.Banks = mem.DefaultBanks
	}
	j.Chip.LinkGBs = max(j.Chip.LinkGBs, 0) // 0: derive from the configuration
	return j
}

// validOps is the closed set Canonical accepts; anything else is a caller
// bug surfaced as an error, never a silently-hashed junk key.
var validOps = map[string]bool{OpGEMM: true, OpConv: true, OpSpMM: true, OpModel: true}

// Canonical returns the normalized job's canonical text encoding — the
// exact bytes the key hashes, exposed for golden tests and debugging.
func (j Job) Canonical() (string, error) {
	n := j.Normalize()
	if !validOps[n.Op] {
		return "", fmt.Errorf("jobkey: unknown op %q", n.Op)
	}
	if n.Arch == "" {
		return "", fmt.Errorf("jobkey: job has no architecture name")
	}
	var b strings.Builder
	if err := appendValue(&b, "job", reflect.ValueOf(n)); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Hash computes the job's content address.
func (j Job) Hash() (Key, error) {
	c, err := j.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(c))
	return Key(hex.EncodeToString(sum[:])), nil
}

// appendValue writes one canonical `path=value` line per scalar reachable
// from v. Struct fields are visited in sorted-name order; fields tagged
// `json:"-"` and unexported fields are skipped. Unsupported kinds (func,
// chan, unsafe pointers) are an error: silently skipping them would let a
// future semantic field escape the key.
func appendValue(b *strings.Builder, path string, v reflect.Value) error {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			fmt.Fprintf(b, "%s=nil\n", path)
			return nil
		}
		return appendValue(b, path, v.Elem())
	case reflect.Struct:
		t := v.Type()
		type field struct {
			name string
			idx  int
		}
		fields := make([]field, 0, t.NumField())
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			if tag, _, _ := strings.Cut(f.Tag.Get("json"), ","); tag == "-" {
				continue // runtime-only state, never serialized
			}
			fields = append(fields, field{f.Name, i})
		}
		sort.Slice(fields, func(a, z int) bool { return fields[a].name < fields[z].name })
		for _, f := range fields {
			if err := appendValue(b, path+"."+f.name, v.Field(f.idx)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Map:
		if v.Type().Key().Kind() != reflect.String {
			return fmt.Errorf("jobkey: cannot canonicalize map with %s keys at %s", v.Type().Key(), path)
		}
		keys := make([]string, 0, v.Len())
		for _, k := range v.MapKeys() {
			keys = append(keys, k.String())
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := appendValue(b, path+"["+strconv.Quote(k)+"]", v.MapIndex(reflect.ValueOf(k))); err != nil {
				return err
			}
		}
		return nil
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(b, "%s.len=%d\n", path, v.Len())
		for i := 0; i < v.Len(); i++ {
			if err := appendValue(b, fmt.Sprintf("%s[%d]", path, i), v.Index(i)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Bool:
		fmt.Fprintf(b, "%s=%t\n", path, v.Bool())
		return nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(b, "%s=%d\n", path, v.Int())
		return nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fmt.Fprintf(b, "%s=%d\n", path, v.Uint())
		return nil
	case reflect.Float32, reflect.Float64:
		// 'g'/-1 is the shortest exact round-trip form: equal floats encode
		// identically, distinct floats never collide.
		fmt.Fprintf(b, "%s=%s\n", path, strconv.FormatFloat(v.Float(), 'g', -1, 64))
		return nil
	case reflect.String:
		fmt.Fprintf(b, "%s=%s\n", path, strconv.Quote(v.String()))
		return nil
	default:
		return fmt.Errorf("jobkey: cannot canonicalize %s at %s", v.Kind(), path)
	}
}
