package comp

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.Add("a.x", 3)
	c.Add("a.x", 2)
	c.Add("b.y", 1)
	if c.Get("a.x") != 5 || c.Get("b.y") != 1 || c.Get("missing") != 0 {
		t.Errorf("counts wrong: %v", c.Snapshot())
	}
	keys := c.Keys()
	if len(keys) != 2 || keys[0] != "a.x" || keys[1] != "b.y" {
		t.Errorf("keys not sorted: %v", keys)
	}
	other := NewCounters()
	other.Add("a.x", 10)
	other.Add("c.z", 7)
	c.Merge(other)
	if c.Get("a.x") != 15 || c.Get("c.z") != 7 {
		t.Errorf("merge wrong: %v", c.Snapshot())
	}
	s := c.String()
	if !strings.Contains(s, "a.x=15\n") {
		t.Errorf("render: %q", s)
	}
	snap := c.Snapshot()
	snap["a.x"] = 999
	if c.Get("a.x") != 15 {
		t.Error("snapshot aliases internal map")
	}
}

func TestFIFOBasics(t *testing.T) {
	f := NewFIFO(2)
	if !f.Empty() || f.Full() {
		t.Fatal("fresh FIFO state wrong")
	}
	if !f.Push(Packet{Seq: 1}) || !f.Push(Packet{Seq: 2}) {
		t.Fatal("pushes rejected")
	}
	if !f.Full() || f.Push(Packet{Seq: 3}) {
		t.Fatal("overfull push accepted")
	}
	if p, ok := f.Peek(); !ok || p.Seq != 1 {
		t.Fatalf("peek: %v %v", p, ok)
	}
	p, ok := f.Pop()
	if !ok || p.Seq != 1 {
		t.Fatalf("pop order wrong: %v", p)
	}
	if pushes, pops := f.Stats(); pushes != 2 || pops != 1 {
		t.Errorf("stats %d %d", pushes, pops)
	}
}

func TestFIFOUnbounded(t *testing.T) {
	f := NewFIFO(0)
	for i := 0; i < 1000; i++ {
		if !f.Push(Packet{Seq: i}) {
			t.Fatal("unbounded FIFO rejected push")
		}
	}
	if f.Full() {
		t.Error("unbounded FIFO reports full")
	}
	if f.Len() != 1000 {
		t.Errorf("len %d", f.Len())
	}
}

// Property: a FIFO preserves order and never loses packets, including
// through the internal compaction path.
func TestFIFOOrderProperty(t *testing.T) {
	f := func(ops []bool) bool {
		fifo := NewFIFO(0)
		nextPush, nextPop := 0, 0
		for _, push := range ops {
			if push {
				fifo.Push(Packet{Seq: nextPush})
				nextPush++
			} else if p, ok := fifo.Pop(); ok {
				if p.Seq != nextPop {
					return false
				}
				nextPop++
			}
		}
		for {
			p, ok := fifo.Pop()
			if !ok {
				break
			}
			if p.Seq != nextPop {
				return false
			}
			nextPop++
		}
		return nextPop == nextPush
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFIFOCompaction(t *testing.T) {
	f := NewFIFO(0)
	// Interleave enough pushes/pops to trigger the head>64 compaction.
	for i := 0; i < 500; i++ {
		f.Push(Packet{Seq: i})
	}
	for i := 0; i < 400; i++ {
		p, ok := f.Pop()
		if !ok || p.Seq != i {
			t.Fatalf("pop %d: %v %v", i, p, ok)
		}
	}
	for i := 500; i < 600; i++ {
		f.Push(Packet{Seq: i})
	}
	for i := 400; i < 600; i++ {
		p, ok := f.Pop()
		if !ok || p.Seq != i {
			t.Fatalf("post-compaction pop %d: %v %v", i, p, ok)
		}
	}
}

func TestPacketKindString(t *testing.T) {
	for k, want := range map[PacketKind]string{
		WeightPkt: "weight", InputPkt: "input", PsumPkt: "psum", OutputPkt: "output",
	} {
		if k.String() != want {
			t.Errorf("%v", k)
		}
	}
}
