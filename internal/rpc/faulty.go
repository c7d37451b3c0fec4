package rpc

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Faults configures seeded per-write fault injection for FaultyConn.
// Each Write rolls once against DelayProb, then DropProb, then
// TruncProb; a drop or truncation closes the connection, so the client
// sees a torn stream mid-call — the failure mode the retry path and the
// differential harness have to prove harmless.
type Faults struct {
	Seed      int64
	DropProb  float64       // close before writing anything
	DelayProb float64       // sleep up to MaxDelay before the write
	TruncProb float64       // write a prefix of the buffer, then close
	MaxDelay  time.Duration // cap for injected delays (default 2ms)
}

// faultRNG shares one seeded stream across all connections from a
// FaultyDialer so a harness run is reproducible from a single seed.
type faultRNG struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// roll draws a uniform float64 in [0, 1).
//
//kdash:testonly
func (f *faultRNG) roll() float64 {
	f.mu.Lock()
	v := f.rng.Float64()
	f.mu.Unlock()
	return v
}

// intn draws a uniform int in [0, n).
//
//kdash:testonly
func (f *faultRNG) intn(n int) int {
	f.mu.Lock()
	v := f.rng.Intn(n)
	f.mu.Unlock()
	return v
}

// FaultyConn wraps a net.Conn, injecting seeded drops, delays, and
// truncations on writes. Reads pass through: cutting the write side is
// enough to tear any framed call, and keeping reads clean makes the
// injected failures deterministic functions of the call sequence.
type FaultyConn struct {
	net.Conn
	f   Faults
	rng *faultRNG
}

// Write applies the fault roll, then forwards to the wrapped conn.
//
//kdash:testonly
func (fc *FaultyConn) Write(p []byte) (int, error) {
	if fc.f.DelayProb > 0 && fc.rng.roll() < fc.f.DelayProb {
		max := fc.f.MaxDelay
		if max <= 0 {
			max = 2 * time.Millisecond
		}
		time.Sleep(time.Duration(fc.rng.intn(int(max))) + time.Microsecond)
	}
	if fc.f.DropProb > 0 && fc.rng.roll() < fc.f.DropProb {
		fc.Conn.Close()
		return 0, fmt.Errorf("faultyconn: injected drop")
	}
	if fc.f.TruncProb > 0 && fc.rng.roll() < fc.f.TruncProb && len(p) > 1 {
		n := 1 + fc.rng.intn(len(p)-1)
		fc.Conn.Write(p[:n]) //nolint:errcheck // best-effort torn prefix
		fc.Conn.Close()
		return n, fmt.Errorf("faultyconn: injected truncation after %d/%d bytes", n, len(p))
	}
	return fc.Conn.Write(p)
}

// FaultyDialer wraps dial so every connection it opens injects faults
// from one shared seeded stream.
//
//kdash:testonly
func FaultyDialer(dial DialFunc, f Faults) DialFunc {
	shared := &faultRNG{rng: rand.New(rand.NewSource(f.Seed))}
	if dial == nil {
		dial = NetDial
	}
	return func(addr string) (net.Conn, error) {
		nc, err := dial(addr)
		if err != nil {
			return nil, err
		}
		return &FaultyConn{Conn: nc, f: f, rng: shared}, nil
	}
}
