package session

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"discover/internal/wire"
)

// modelFifo is the reference implementation: an unbounded ordered queue
// with drop-oldest at capacity, whose drops since the last non-empty
// drain are reported by the next one.
type modelFifo struct {
	buf        []uint64
	capacity   int
	dropped    uint64
	overflowed uint64
}

func (m *modelFifo) push(seq uint64) {
	if len(m.buf) >= m.capacity {
		m.buf = m.buf[1:]
		m.dropped++
		m.overflowed++
	}
	m.buf = append(m.buf, seq)
}

func (m *modelFifo) drain(max int) ([]uint64, uint64) {
	n := len(m.buf)
	if max > 0 && max < n {
		n = max
	}
	if n == 0 {
		return nil, 0
	}
	out := append([]uint64(nil), m.buf[:n]...)
	m.buf = m.buf[n:]
	overflow := m.overflowed
	m.overflowed = 0
	return out, overflow
}

// opSeq drives both implementations through the same operation sequence
// and compares every observation.
type opSeq struct {
	capacity uint8
	ops      []opStep
}

type opStep struct {
	push bool
	max  uint8
}

// Generate implements quick.Generator.
func (opSeq) Generate(r *rand.Rand, size int) reflect.Value {
	s := opSeq{capacity: uint8(1 + r.Intn(16))}
	n := 5 + r.Intn(100)
	for i := 0; i < n; i++ {
		s.ops = append(s.ops, opStep{push: r.Intn(3) != 0, max: uint8(r.Intn(8))})
	}
	return reflect.ValueOf(s)
}

func TestFifoMatchesModel(t *testing.T) {
	prop := func(s opSeq) bool {
		capacity := int(s.capacity)
		f := NewQueue(capacity, 0)
		m := &modelFifo{capacity: capacity}
		var seq uint64
		for _, op := range s.ops {
			if op.push {
				seq++
				f.Push(wire.NewUpdate("app", seq))
				m.push(seq)
			} else {
				got, gotOverflow := f.DrainEntries(int(op.max))
				want, wantOverflow := m.drain(int(op.max))
				if len(got) != len(want) || gotOverflow != wantOverflow {
					return false
				}
				for i := range got {
					if got[i].Msg.Seq != want[i] {
						return false
					}
				}
			}
			if f.Len() != len(m.buf) {
				return false
			}
			d, hw := f.Stats()
			if d != m.dropped {
				return false
			}
			if hw > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
