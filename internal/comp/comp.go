// Package comp provides the primitives every simulated hardware module is
// built from: the Component interface with its per-clock Cycle method
// (mirroring STONNE's class diagram, Fig. 4 of the paper), bounded FIFOs,
// data packets, and the hierarchical activity counters that feed the
// table-based energy model.
package comp

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Component is any hardware module that advances one clock cycle at a time.
// The accelerator's run loop ticks every configured component once per
// simulated cycle in pipeline order.
type Component interface {
	Name() string
	Cycle()
}

// Unbounded is the Lookahead return value meaning "steady for any horizon":
// the component never limits a fast-forward skip; something else (another
// component, the controller, the watchdog) provides the finite bound.
const Unbounded = ^uint64(0)

// Lookahead is the fast-forward capability of a ticked component (every
// sim.Tickable carries it). A component certifies, cycle-accurately, how
// far ahead its Cycle method is predictable without running it:
//
//   - Lookahead returns n > 0 when the next n Cycle calls would be no-ops
//     apart from state that Advance can replay in closed form (counters,
//     internal clocks). It returns 0 when the component must actually tick.
//     The certificate assumes no external input arrives during the skip —
//     the kernel guarantees that by skipping only when every tick
//     participant and the controller agree on a nonzero bound.
//   - Advance(n) replays n skipped cycles at once. After Advance(n) the
//     component must be in the exact state n individual Cycle calls would
//     have produced — bit-exact, including every activity counter.
type Lookahead interface {
	Lookahead() uint64
	Advance(n uint64)
}

// Counter names are interned once into a process-wide registry so every
// Counters instance can store its values in a flat slice indexed by the
// interned id. The registry only grows (ids are never reused); after the
// first simulation has registered the vocabulary, lookups take a read lock
// and the per-cycle hot path takes no lock at all — it holds pre-resolved
// handles.
var registry = struct {
	sync.RWMutex
	ids   map[string]int
	names []string
}{ids: make(map[string]int)}

// counterID interns name, returning its stable id.
func counterID(name string) int {
	registry.RLock()
	id, ok := registry.ids[name]
	registry.RUnlock()
	if ok {
		return id
	}
	registry.Lock()
	defer registry.Unlock()
	if id, ok := registry.ids[name]; ok {
		return id
	}
	id = len(registry.names)
	registry.ids[name] = id
	registry.names = append(registry.names, name)
	return id
}

// counterNames returns the first n interned names. The returned slice is
// safe to read without the lock: entries are immutable once published and
// append reallocation leaves old backing arrays intact.
func counterNames(n int) []string {
	registry.RLock()
	defer registry.RUnlock()
	return registry.names[:n:n]
}

// Counters accumulates named activity counts ("mn.mults",
// "dn.link_traversals", "gb.reads", ...). The energy model multiplies each
// count by a per-event cost table, exactly as STONNE's counter file +
// Accelergy-style script does.
//
// Values live in a flat slice indexed by the interned counter id; the
// string-keyed methods resolve names on every call and exist for cold paths
// (construction, snapshots, tests). Per-cycle call sites pre-resolve a
// Counter handle once and use Counter.Add, which is a bare slice update.
// A Counters instance is not safe for concurrent use — each engine run owns
// a private instance (what makes whole runs embarrassingly parallel).
type Counters struct {
	vals    []uint64
	touched []bool
}

// Counter is a handle to one named counter of one Counters instance,
// pre-resolved so the per-cycle increment does no string hashing.
type Counter struct {
	c  *Counters
	id int32
}

// Add increments the counter by n. Adding zero still marks the counter as
// present in snapshots, matching the map semantics of the string API.
func (h Counter) Add(n uint64) {
	h.c.vals[h.id] += n
	h.c.touched[h.id] = true
}

// Value returns the counter's current value.
func (h Counter) Value() uint64 { return h.c.vals[h.id] }

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{} }

// ensure grows the value storage to cover id.
func (c *Counters) ensure(id int) {
	if id < len(c.vals) {
		return
	}
	vals := make([]uint64, id+1)
	copy(vals, c.vals)
	c.vals = vals
	touched := make([]bool, id+1)
	copy(touched, c.touched)
	c.touched = touched
}

// Counter resolves (interning if needed) a handle for the named counter.
// Resolve once at component construction; call Add on the hot path.
func (c *Counters) Counter(name string) Counter {
	id := counterID(name)
	c.ensure(id)
	return Counter{c: c, id: int32(id)}
}

// Add increments counter key by n (string-keyed cold path).
func (c *Counters) Add(key string, n uint64) { c.Counter(key).Add(n) }

// Get returns the current value of key (0 if never touched).
func (c *Counters) Get(key string) uint64 {
	registry.RLock()
	id, ok := registry.ids[key]
	registry.RUnlock()
	if !ok || id >= len(c.vals) {
		return 0
	}
	return c.vals[id]
}

// Keys returns all counter names in sorted order.
func (c *Counters) Keys() []string {
	names := counterNames(len(c.vals))
	keys := make([]string, 0, len(c.vals))
	for id, t := range c.touched {
		if t {
			keys = append(keys, names[id])
		}
	}
	sort.Strings(keys)
	return keys
}

// Snapshot returns a copy of the counter map.
func (c *Counters) Snapshot() map[string]uint64 {
	names := counterNames(len(c.vals))
	out := make(map[string]uint64, len(c.vals))
	for id, t := range c.touched {
		if t {
			out[names[id]] = c.vals[id]
		}
	}
	return out
}

// Merge adds every counter of other into c.
func (c *Counters) Merge(other *Counters) {
	for id, t := range other.touched {
		if !t {
			continue
		}
		c.ensure(id)
		c.vals[id] += other.vals[id]
		c.touched[id] = true
	}
}

// String renders the counters one per line in the customized counter-file
// format of the output module.
func (c *Counters) String() string {
	snap := c.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d\n", k, snap[k])
	}
	return b.String()
}

// PacketKind tags what a value travelling the fabric represents.
type PacketKind uint8

const (
	WeightPkt PacketKind = iota
	InputPkt
	PsumPkt
	OutputPkt
)

func (k PacketKind) String() string {
	switch k {
	case WeightPkt:
		return "weight"
	case InputPkt:
		return "input"
	case PsumPkt:
		return "psum"
	case OutputPkt:
		return "output"
	default:
		return fmt.Sprintf("PacketKind(%d)", int(k))
	}
}

// Packet is one element in flight through the fabric.
type Packet struct {
	Value float32
	Kind  PacketKind
	// VN identifies the virtual neuron / cluster the value belongs to.
	VN int
	// Seq is the element's position within its dot product or stream.
	Seq int
	// Gen is the stationary-configuration generation. A weight packet with
	// Gen != 0 lands in the switch's shadow register; an input packet with
	// Gen != 0 promotes the matching shadow to the live stationary before
	// multiplying — SIGMA-style double-buffered reconfiguration that lets
	// consecutive rounds pipeline. Gen 0 is the barrier-synchronized dense
	// path.
	Gen uint32
	// Last marks the final contribution to an accumulation.
	Last bool
}

// FIFO is a bounded queue of packets with push/pop activity accounting.
// A zero-capacity FIFO is unbounded (used for result collection).
type FIFO struct {
	name     string
	capacity int
	buf      []Packet
	head     int

	pushes, pops, maxOcc uint64
}

// NewFIFO returns a FIFO with the given capacity (0 = unbounded).
func NewFIFO(name string, capacity int) *FIFO {
	return &FIFO{name: name, capacity: capacity}
}

// Name returns the FIFO's instance name.
func (f *FIFO) Name() string { return f.name }

// Len returns the current occupancy.
func (f *FIFO) Len() int { return len(f.buf) - f.head }

// Full reports whether a push would be rejected.
func (f *FIFO) Full() bool { return f.capacity > 0 && f.Len() >= f.capacity }

// Empty reports whether the FIFO holds no packets.
func (f *FIFO) Empty() bool { return f.Len() == 0 }

// Push enqueues p; it returns false (and drops nothing) when full.
func (f *FIFO) Push(p Packet) bool {
	if f.Full() {
		return false
	}
	f.buf = append(f.buf, p)
	f.pushes++
	if occ := uint64(f.Len()); occ > f.maxOcc {
		f.maxOcc = occ
	}
	return true
}

// Pop dequeues the oldest packet; ok is false when empty.
func (f *FIFO) Pop() (p Packet, ok bool) {
	if f.Empty() {
		return Packet{}, false
	}
	p = f.buf[f.head]
	f.head++
	f.pops++
	// Compact occasionally so the backing array does not grow unboundedly.
	if f.head > 64 && f.head*2 >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	return p, true
}

// Peek returns the oldest packet without removing it.
func (f *FIFO) Peek() (p Packet, ok bool) {
	if f.Empty() {
		return Packet{}, false
	}
	return f.buf[f.head], true
}

// Stats reports lifetime pushes, pops and the high-water occupancy.
func (f *FIFO) Stats() (pushes, pops, maxOccupancy uint64) {
	return f.pushes, f.pops, f.maxOcc
}

// Lookahead implements the fast-forward capability trivially: a FIFO has no
// clocked behaviour of its own (it changes only when pushed or popped), so
// an empty FIFO is steady for any horizon and a non-empty one defers to the
// component draining it.
func (f *FIFO) Lookahead() uint64 {
	if f.Empty() {
		return Unbounded
	}
	return 0
}

// Advance implements Lookahead; a FIFO holds no per-cycle state to replay.
func (f *FIFO) Advance(uint64) {}

// AddTo folds the FIFO's activity into the counter set under the given
// keys. Callers pass constants from internal/comp/names (e.g.
// names.MNFifoPushes / names.MNFifoPops) rather than having the FIFO
// synthesize key strings outside the shared vocabulary.
func (f *FIFO) AddTo(c *Counters, pushesKey, popsKey string) {
	c.Add(pushesKey, f.pushes)
	c.Add(popsKey, f.pops)
}
