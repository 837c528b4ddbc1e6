package mp

import (
	"bytes"
	"testing"
)

func TestPoolClasses(t *testing.T) {
	prevIdx, prevCap := -1, 0
	for n := poolMinBytes + 1; n <= 1<<20; n++ {
		idx, c, ok := poolClass(n)
		if !ok {
			t.Fatalf("size %d not pooled", n)
		}
		if c < n || 4*(c-n) >= n {
			t.Fatalf("size %d: class capacity %d wastes more than a quarter", n, c)
		}
		if idx < prevIdx || (idx == prevIdx) != (c == prevCap) {
			t.Fatalf("size %d: class %d (cap %d) after class %d (cap %d)", n, idx, c, prevIdx, prevCap)
		}
		if idx2, c2, _ := poolClass(c); idx2 != idx || c2 != c {
			t.Fatalf("class capacity %d maps to class %d cap %d, want %d", c, idx2, c2, idx)
		}
		prevIdx, prevCap = idx, c
	}
	if last, _, ok := poolClass(1 << poolLastBits); !ok || last != len(msgPool.free)-1 {
		t.Fatalf("largest size maps to class %d, want %d", last, len(msgPool.free)-1)
	}
	for _, n := range []int{0, 1, poolMinBytes, 1<<poolLastBits + 1} {
		if _, _, ok := poolClass(n); ok {
			t.Errorf("size %d should not be pooled", n)
		}
	}
}

func TestRecycleReusesStorage(t *testing.T) {
	a := getBuf(1000)
	if len(a) != 1000 {
		t.Fatalf("len %d, want 1000", len(a))
	}
	Recycle(a)
	b := getBuf(990) // same class
	if &b[0] != &a[0] || len(b) != 990 {
		t.Fatal("a recycled buffer was not reused for a same-class request")
	}
	// A buffer the pool did not size (its capacity is no class
	// capacity) is ignored rather than served to a later request.
	foreign := make([]byte, 1000, 1001)
	Recycle(foreign)
	if c := getBuf(1000); &c[0] == &foreign[0] {
		t.Fatal("a foreign buffer was pooled")
	}
	Recycle(nil)
}

func TestPoolByteBudget(t *testing.T) {
	p := &msgPool
	p.mu.Lock()
	saved := p.pooled
	p.pooled = poolMaxBytes - 100
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.pooled -= poolMaxBytes - 100 - saved
		p.mu.Unlock()
	}()
	buf := getBuf(200) // class capacity 224 > the 100 bytes left
	Recycle(buf)
	if c := getBuf(200); &c[0] == &buf[0] {
		t.Fatal("pool kept a buffer beyond its byte budget")
	}
}

// Outstanding messages never share storage, and payloads recycled by a
// receiver come back intact as later messages.
func TestMailboxRecycledPayloads(t *testing.T) {
	err := Run(2, testOpts(), func(c Comm) error {
		const rounds, burst = 20, 8
		for round := 0; round < rounds; round++ {
			if c.Rank() == 0 {
				for i := 0; i < burst; i++ {
					payload := bytes.Repeat([]byte{byte(round*burst + i)}, 500+i)
					if err := c.Send(1, 1, payload); err != nil {
						return err
					}
				}
				continue
			}
			msgs := make([][]byte, burst)
			for i := range msgs {
				m, err := c.Recv(0, 1)
				if err != nil {
					return err
				}
				msgs[i] = m
			}
			for i, m := range msgs {
				want := bytes.Repeat([]byte{byte(round*burst + i)}, 500+i)
				if !bytes.Equal(m, want) {
					t.Errorf("round %d message %d corrupted", round, i)
				}
				Recycle(m)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
