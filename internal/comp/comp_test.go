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
	f := NewFIFO(make([]Packet, 2))
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

// Property: a FIFO preserves order and never loses an accepted packet; a
// push is refused exactly when the ring is full.
func TestFIFOOrderProperty(t *testing.T) {
	f := func(ops []bool) bool {
		fifo := NewFIFO(make([]Packet, 8))
		var nextPush, nextPop uint32
		for _, push := range ops {
			if push {
				full := nextPush-nextPop == 8
				if fifo.Push(Packet{Seq: nextPush}) == full {
					return false
				}
				if !full {
					nextPush++
				}
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

// TestFIFORingWraps drives small rings around many times against a slice
// oracle: every pop returns the oracle's head, Len/Full/Empty agree with it
// after every burst, and the push/pop Stats count exactly the accepted
// operations.
func TestFIFORingWraps(t *testing.T) {
	for _, capacity := range []int{1, 2, 4} {
		f := NewFIFO(make([]Packet, capacity))
		var oracle []uint32
		var pushes, pops uint64
		var seq uint32
		// Push bursts and pop bursts of varying length: bursts longer than
		// the capacity hit Full and Empty, and the head keeps moving round.
		for round := 0; round < 100*capacity; round++ {
			for i := 0; i < 1+round%(capacity+2); i++ {
				ok := f.Push(Packet{Seq: seq})
				if ok != (len(oracle) < capacity) {
					t.Fatalf("cap %d: push %d accepted = %v with %d queued", capacity, seq, ok, len(oracle))
				}
				if ok {
					oracle = append(oracle, seq)
					pushes++
				}
				seq++
			}
			for i := 0; i < 1+(round*7)%(capacity+2); i++ {
				p, ok := f.Pop()
				if ok != (len(oracle) > 0) {
					t.Fatalf("cap %d: pop ok = %v with %d queued", capacity, ok, len(oracle))
				}
				if ok {
					if p.Seq != oracle[0] {
						t.Fatalf("cap %d: popped %d, want %d", capacity, p.Seq, oracle[0])
					}
					oracle = oracle[1:]
					pops++
				}
			}
			if f.Len() != len(oracle) || f.Full() != (len(oracle) == capacity) || f.Empty() != (len(oracle) == 0) {
				t.Fatalf("cap %d round %d: Len/Full/Empty %d/%v/%v, oracle holds %d",
					capacity, round, f.Len(), f.Full(), f.Empty(), len(oracle))
			}
			if p, ok := f.Peek(); ok != (len(oracle) > 0) || ok && p.Seq != oracle[0] {
				t.Fatalf("cap %d round %d: peek %v %v, oracle %v", capacity, round, p, ok, oracle)
			}
		}
		if gotPush, gotPop := f.Stats(); gotPush != pushes || gotPop != pops {
			t.Errorf("cap %d: stats %d/%d, want %d/%d", capacity, gotPush, gotPop, pushes, pops)
		}
		if pops < uint64(10*capacity) {
			t.Errorf("cap %d: only %d pops, the ring never wrapped many times", capacity, pops)
		}
	}
}

func TestPacketKindString(t *testing.T) {
	for k, want := range map[PacketKind]string{
		WeightPkt: "weight", InputPkt: "input", InputPkt + 1: "PacketKind(2)",
	} {
		if k.String() != want {
			t.Errorf("%v", k)
		}
	}
}
