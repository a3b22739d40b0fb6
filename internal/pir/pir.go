// Package pir applies Snoopy's techniques to private information
// retrieval, the extension sketched in the paper's §9: the subORAMs are
// replaced by classic two-server XOR PIR shards, and Snoopy's oblivious
// load balancer routes requests to the shard holding each object — hiding
// the request-to-shard mapping that plain sharded PIR would leak, while
// each shard pays a linear scan only over its partition instead of the
// whole store (PIR's fundamental limitation the paper calls out).
//
// The two servers of a shard are assumed non-colluding (standard IT-PIR).
// Reads are information-theoretically private against either server;
// writes update both replicas directly and are NOT private — PIR mode
// suits read-dominated stores such as transparency logs (§3.2).
package pir

import (
	"crypto/rand"
	"fmt"
	"sync"

	"snoopy/internal/store"
)

// Server is one of the two non-colluding PIR servers for a shard: a plain
// replica of the shard's blocks that answers XOR queries.
type Server struct {
	mu     sync.RWMutex
	n      int
	block  int
	blocks []byte // n × block
}

// NewServer creates a server over n zeroed blocks.
func NewServer(n, block int) *Server {
	return &Server{n: n, block: block, blocks: make([]byte, n*block)}
}

// Load replaces block i.
func (s *Server) Load(i int, data []byte) {
	s.mu.Lock()
	copy(s.blocks[i*s.block:(i+1)*s.block], data)
	s.mu.Unlock()
}

// Answer XORs together every block whose bit is set in the query vector
// (length ceil(n/8) bytes). The server necessarily scans all its blocks —
// the access pattern is the same for every query.
func (s *Server) Answer(query []byte) ([]byte, error) {
	if len(query) != (s.n+7)/8 {
		return nil, fmt.Errorf("pir: query length %d for %d blocks", len(query), s.n)
	}
	out := make([]byte, s.block)
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := 0; i < s.n; i++ {
		bit := (query[i/8] >> (i % 8)) & 1
		mask := -bit // 0x00 or 0xFF
		blk := s.blocks[i*s.block : (i+1)*s.block]
		for j := range out {
			out[j] ^= mask & blk[j]
		}
	}
	return out, nil
}

// SubORAM is a Snoopy partition served by a two-server PIR shard. It
// implements core.SubORAMClient for read traffic.
type SubORAM struct {
	mu    sync.Mutex
	block int
	n     int
	a, b  *Server
	ids   []uint64
	idx   map[uint64]int
}

// NewSubORAM creates an empty PIR shard.
func NewSubORAM(blockSize int) *SubORAM {
	return &SubORAM{block: blockSize}
}

// Init loads the shard onto both servers.
func (s *SubORAM) Init(ids []uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(data) != len(ids)*s.block {
		return fmt.Errorf("pir: data length mismatch")
	}
	n := len(ids)
	if n == 0 {
		n = 1
	}
	s.n = n
	s.a = NewServer(n, s.block)
	s.b = NewServer(n, s.block)
	s.ids = append([]uint64(nil), ids...)
	s.idx = make(map[uint64]int, len(ids))
	for i, id := range ids {
		if _, dup := s.idx[id]; dup {
			return fmt.Errorf("pir: duplicate id %d", id)
		}
		s.idx[id] = i
		s.a.Load(i, data[i*s.block:(i+1)*s.block])
		s.b.Load(i, data[i*s.block:(i+1)*s.block])
	}
	return nil
}

// BatchAccess answers each request with a fresh two-server PIR query.
// Dummy and absent keys issue queries for a random index (the servers see
// identically distributed vectors either way); their responses are zeroed
// with Aux == 0. Write requests are applied to both replicas directly and
// answered with the pre-write value — correct, but not private; see the
// package comment.
func (s *SubORAM) BatchAccess(reqs *store.Requests) (*store.Requests, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.a == nil {
		return nil, fmt.Errorf("pir: not initialized")
	}
	out := reqs.Clone()
	qlen := (s.n + 7) / 8
	for i := 0; i < out.Len(); i++ {
		dense, known := s.idx[out.Key[i]]
		target := dense
		if !known {
			target = int(out.Seq[i]) % s.n // arbitrary; response discarded
		}
		// ρ uniformly random; second query flips the target bit.
		q1 := make([]byte, qlen)
		if _, err := rand.Read(q1); err != nil {
			return nil, err
		}
		// Mask stray bits beyond n so Answer lengths stay canonical.
		if s.n%8 != 0 {
			q1[qlen-1] &= byte(1<<(s.n%8)) - 1
		}
		q2 := make([]byte, qlen)
		copy(q2, q1)
		q2[target/8] ^= 1 << (target % 8)

		a1, err := s.a.Answer(q1)
		if err != nil {
			return nil, err
		}
		a2, err := s.b.Answer(q2)
		if err != nil {
			return nil, err
		}
		blk := out.Block(i)
		for j := range blk {
			blk[j] = a1[j] ^ a2[j]
		}
		if !known {
			for j := range blk {
				blk[j] = 0
			}
			out.Aux[i] = 0
			continue
		}
		out.Aux[i] = 1
		if out.Op[i] == store.OpWrite {
			// Non-private write path: update both replicas in place; the
			// PIR answer above already captured the pre-write value.
			s.a.Load(dense, reqs.Block(i))
			s.b.Load(dense, reqs.Block(i))
		}
	}
	// Answered in the order received, which for a load balancer's batch is
	// key order.
	out.StampKeyOrder()
	return out, nil
}
