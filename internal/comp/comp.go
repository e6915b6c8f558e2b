// Package comp provides the primitives every simulated hardware module is
// built from: the fast-forward capability of a ticked component, bounded
// FIFOs, data packets, and the hierarchical activity counters that feed the
// table-based energy model.
package comp

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

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
)

func (k PacketKind) String() string {
	switch k {
	case WeightPkt:
		return "weight"
	case InputPkt:
		return "input"
	default:
		return fmt.Sprintf("PacketKind(%d)", int(k))
	}
}

// Packet is one element in flight through the fabric: 16 bytes, so a
// distribution-network delivery and an operand FIFO slot stay small.
type Packet struct {
	Value float32
	// Seq is the compute step the element belongs to. It counts steps
	// modulo 2³²: a switch's psum is matched to its reduction by equality
	// on Seq alone, which stays exact after the counter wraps because the
	// steps in flight at once — queued in the distribution network (at most
	// its 1024-delivery injection queue), in operand FIFOs and psum latches,
	// and awaiting reduction — span a window many orders of magnitude below
	// 2³², so two live steps never share a value.
	Seq uint32
	// Gen is the stationary-configuration generation. A weight packet with
	// Gen != 0 lands in the switch's shadow register; an input packet with
	// Gen != 0 promotes the matching shadow to the live stationary before
	// multiplying — SIGMA-style double-buffered reconfiguration that lets
	// consecutive rounds pipeline. Gen 0 is the barrier-synchronized dense
	// path.
	Gen  uint32
	Kind PacketKind
}

// FIFO is a fixed-capacity ring of packets with push/pop activity
// accounting. Its storage is the slice it is made over and never grows: a
// push past capacity is refused, which is how a full operand queue
// back-pressures the network.
type FIFO struct {
	buf     []Packet // the ring; len(buf) is the capacity
	head, n int

	pushes, pops uint64
}

// NewFIFO returns an empty FIFO over buf, whose length (at least 1) is its
// capacity; a fabric cuts every switch's ring from one allocation.
func NewFIFO(buf []Packet) FIFO {
	if len(buf) == 0 {
		panic("comp: a FIFO needs a capacity of at least 1")
	}
	return FIFO{buf: buf}
}

// Len returns the current occupancy.
func (f *FIFO) Len() int { return f.n }

// Full reports whether a push would be rejected.
func (f *FIFO) Full() bool { return f.n == len(f.buf) }

// Empty reports whether the FIFO holds no packets.
func (f *FIFO) Empty() bool { return f.n == 0 }

// Push enqueues p; it returns false (and drops nothing) when full.
func (f *FIFO) Push(p Packet) bool {
	if f.Full() {
		return false
	}
	i := f.head + f.n
	if i >= len(f.buf) {
		i -= len(f.buf)
	}
	f.buf[i] = p
	f.n++
	f.pushes++
	return true
}

// Pop dequeues the oldest packet; ok is false when empty.
func (f *FIFO) Pop() (p Packet, ok bool) {
	if f.Empty() {
		return Packet{}, false
	}
	p = f.buf[f.head]
	f.head++
	if f.head == len(f.buf) {
		f.head = 0
	}
	f.n--
	f.pops++
	return p, true
}

// Peek returns the oldest packet without removing it.
func (f *FIFO) Peek() (p Packet, ok bool) {
	if f.Empty() {
		return Packet{}, false
	}
	return f.buf[f.head], true
}

// Stats reports lifetime pushes and pops.
func (f *FIFO) Stats() (pushes, pops uint64) {
	return f.pushes, f.pops
}
