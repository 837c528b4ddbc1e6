package mp

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The collective algorithms below are written against rawComm so the
// in-process and TCP transports share them. Collective traffic is marked
// internal in the message log: the paper's cost model charges only the
// compositing algorithm's own messages.

// barrier is a dissemination barrier: ceil(log2 P) rounds, in round k each
// rank signals (rank + 2^k) mod P and waits for (rank - 2^k) mod P. It
// works for any P, not just powers of two.
func barrier(c rawComm) error {
	p := c.Size()
	if p == 1 {
		return nil
	}
	c.Log().beginInternal()
	defer c.Log().endInternal()
	for k, off := 0, 1; off < p; k, off = k+1, off*2 {
		to := (c.Rank() + off) % p
		from := (c.Rank() - off + p) % p
		if err := c.sendRaw(to, tagBarrier+k, nil); err != nil {
			return err
		}
		if _, err := c.recvRaw(from, tagBarrier+k); err != nil {
			return fmt.Errorf("barrier round %d: %w", k, err)
		}
	}
	return nil
}

// bcast is a binomial-tree broadcast rooted at root.
func bcast(c rawComm, root int, payload []byte) ([]byte, error) {
	p := c.Size()
	if err := checkPeer(root, p); err != nil {
		return nil, err
	}
	if p == 1 {
		return payload, nil
	}
	c.Log().beginInternal()
	defer c.Log().endInternal()

	rel := (c.Rank() - root + p) % p
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			src := (rel - mask + root) % p
			msg, err := c.recvRaw(src, tagBcast)
			if err != nil {
				return nil, fmt.Errorf("bcast recv: %w", err)
			}
			payload = msg
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < p {
			dst := (rel + mask + root) % p
			if err := c.sendRaw(dst, tagBcast, payload); err != nil {
				return nil, err
			}
		}
		mask >>= 1
	}
	return payload, nil
}

// gather collects every rank's payload at root (flat algorithm; worlds in
// this system are at most a few hundred ranks).
func gather(c rawComm, root int, payload []byte) ([][]byte, error) {
	p := c.Size()
	if err := checkPeer(root, p); err != nil {
		return nil, err
	}
	c.Log().beginInternal()
	defer c.Log().endInternal()
	if c.Rank() != root {
		return nil, c.sendRaw(root, tagGather, payload)
	}
	out := make([][]byte, p)
	out[root] = getBuf(len(payload))
	copy(out[root], payload)
	for r := 0; r < p; r++ {
		if r == root {
			continue
		}
		msg, err := c.recvRaw(r, tagGather)
		if err != nil {
			return nil, fmt.Errorf("gather from %d: %w", r, err)
		}
		out[r] = msg
	}
	return out, nil
}

// scatter distributes payloads[i] to rank i from root.
func scatter(c rawComm, root int, payloads [][]byte) ([]byte, error) {
	p := c.Size()
	if err := checkPeer(root, p); err != nil {
		return nil, err
	}
	c.Log().beginInternal()
	defer c.Log().endInternal()
	if c.Rank() != root {
		return c.recvRaw(root, tagScatter)
	}
	if len(payloads) != p {
		return nil, fmt.Errorf("mp: scatter needs %d payloads, got %d", p, len(payloads))
	}
	for r := 0; r < p; r++ {
		if r == root {
			continue
		}
		if err := c.sendRaw(r, tagScatter, payloads[r]); err != nil {
			return nil, err
		}
	}
	return append([]byte(nil), payloads[root]...), nil
}

// reduce combines one float64 per rank at root using a binomial tree (the
// combine order is deterministic: higher virtual ranks fold into lower).
func reduce(c rawComm, root int, value float64, op ReduceOp) (float64, error) {
	p := c.Size()
	if err := checkPeer(root, p); err != nil {
		return 0, err
	}
	if p == 1 {
		return value, nil
	}
	c.Log().beginInternal()
	defer c.Log().endInternal()

	rel := (c.Rank() - root + p) % p
	acc := value
	for mask := 1; mask < p; mask <<= 1 {
		if rel&mask != 0 {
			dst := (rel - mask + root) % p
			if err := c.sendRaw(dst, tagReduce, encodeF64(acc)); err != nil {
				return 0, err
			}
			return 0, nil
		}
		if rel+mask < p {
			src := (rel + mask + root) % p
			msg, err := c.recvRaw(src, tagReduce)
			if err != nil {
				return 0, fmt.Errorf("reduce recv: %w", err)
			}
			v, err := decodeF64(msg)
			if err != nil {
				return 0, err
			}
			acc = op.Apply(acc, v)
		}
	}
	if c.Rank() == root {
		return acc, nil
	}
	return 0, nil
}

// allReduce is reduce-to-zero followed by broadcast.
func allReduce(c rawComm, value float64, op ReduceOp) (float64, error) {
	v, err := reduce(c, 0, value, op)
	if err != nil {
		return 0, err
	}
	c.Log().beginInternal()
	var buf []byte
	if c.Rank() == 0 {
		buf = encodeF64(v)
	}
	buf, err = bcast(c, 0, buf)
	c.Log().endInternal()
	if err != nil {
		return 0, err
	}
	return decodeF64(buf)
}

func encodeF64(v float64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	return buf[:]
}

func decodeF64(buf []byte) (float64, error) {
	if len(buf) != 8 {
		return 0, fmt.Errorf("mp: float64 message has %d bytes, want 8", len(buf))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf)), nil
}
