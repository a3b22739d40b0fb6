package suboram_test

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"

	"snoopy/internal/crypt"
	"snoopy/internal/enclave"
	"snoopy/internal/hostfs"
	"snoopy/internal/ohash"
	"snoopy/internal/persist"
	"snoopy/internal/replica"
	"snoopy/internal/segstore"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
	"snoopy/internal/transport"
)

const deliveryBlock = 32

// deliverer is a partition as the engine drives it (core.SubORAMClient).
type deliverer interface {
	Init(ids []uint64, data []byte) error
	Deliver(tag store.DeliveryTag, reqs []*store.Requests) ([]*store.Requests, error)
}

// kind builds one kind of partition, empty, and returns how to read its
// state: every value it holds, and its epochs (none for a partition that
// counts none). refusal is what its error says when one of its batches is
// refused.
type kind struct {
	name    string
	open    func(t *testing.T) (p deliverer, state func() ([]byte, []uint64))
	refusal error
}

// exported reads a subORAM's values.
func exported(t *testing.T, s *suboram.SubORAM) []byte {
	t.Helper()
	_, data, err := s.Export()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func plainState(t *testing.T, s *suboram.SubORAM) func() ([]byte, []uint64) {
	return func() ([]byte, []uint64) { return exported(t, s), nil }
}

// durable is a Durable over a subORAM in the placement asked for.
func durable(disk bool) func(t *testing.T) (deliverer, func() ([]byte, []uint64)) {
	return func(t *testing.T) (deliverer, func() ([]byte, []uint64)) {
		var inner *suboram.SubORAM
		dur, err := persist.NewDurable(t.TempDir(), persist.Config{BlockSize: deliveryBlock, Disk: disk},
			func(scan suboram.BlockStore) persist.Partition {
				inner = suboram.New(suboram.Config{BlockSize: deliveryBlock, Store: scan})
				return inner
			})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dur.Close() })
		return dur, func() ([]byte, []uint64) { return exported(t, inner), []uint64{dur.Epoch()} }
	}
}

var kinds = []kind{
	{"sealed=false", func(t *testing.T) (deliverer, func() ([]byte, []uint64)) {
		s := suboram.New(suboram.Config{BlockSize: deliveryBlock})
		return s, plainState(t, s)
	}, ohash.ErrOrder},
	{"sealed=true", func(t *testing.T) (deliverer, func() ([]byte, []uint64)) {
		// The Sealed placement, built as suboram.New builds it, but with the
		// store in reach for its epoch.
		ss, err := segstore.Open("", segstore.Options{BlockSize: deliveryBlock, Key: crypt.MustNewKey(), FS: hostfs.NewMem()})
		if err == nil {
			err = ss.Format(0)
		}
		if err != nil {
			t.Fatal(err)
		}
		s := suboram.New(suboram.Config{BlockSize: deliveryBlock, Store: ss})
		return s, func() ([]byte, []uint64) { return exported(t, s), []uint64{ss.Epoch()} }
	}, ohash.ErrOrder},
	{"durable=memory", durable(false), ohash.ErrOrder},
	{"durable=disk", durable(true), ohash.ErrOrder},
	{"remote", func(t *testing.T) (deliverer, func() ([]byte, []uint64)) {
		platform, m := enclave.NewPlatform(), enclave.Measure("snoopy-suboram")
		s := suboram.New(suboram.Config{BlockSize: deliveryBlock})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go transport.ServeSubORAM(l, s, platform, m)
		r, err := transport.Dial(l.Addr().String(), platform, m)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return r, plainState(t, s)
	}, ohash.ErrOrder},
	{"replica", func(t *testing.T) (deliverer, func() ([]byte, []uint64)) {
		subs := make([]*suboram.SubORAM, 3)
		nodes := make([]*replica.Node, len(subs))
		members := make([]replica.Client, len(subs))
		for i := range subs {
			subs[i] = suboram.New(suboram.Config{BlockSize: deliveryBlock})
			nodes[i] = replica.NewNode(subs[i])
			members[i] = nodes[i]
		}
		g, err := replica.NewGroup(members, nil, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		return g, func() ([]byte, []uint64) {
			var data []byte
			var epochs []uint64
			for i, n := range nodes {
				g.WaitIdle(i) // a member behind the quorum still applying
				data, epochs = append(data, exported(t, subs[i])...), append(epochs, n.Epoch())
			}
			return data, epochs
		}
	}, ohash.ErrOrder},
}

// advance is epochs one further.
func advance(epochs []uint64) []uint64 {
	out := make([]uint64, len(epochs))
	for i, e := range epochs {
		out[i] = e + 1
	}
	return out
}

func blockOf(id uint64, version int) []byte {
	b := make([]byte, deliveryBlock)
	copy(b, fmt.Sprintf("obj-%d-v%d", id, version))
	return b
}

// oneRow is a one-row batch in table order under a fixed key.
func oneRow(op uint8, key uint64, value []byte) *store.Requests {
	return oneRowOf(deliveryBlock, op, key, value)
}

// oneRowOf is oneRow at another block size.
func oneRowOf(blockSize int, op uint8, key uint64, value []byte) *store.Requests {
	r := store.NewRequests(1, blockSize)
	r.SetRow(0, op, key, 0, 0, 0, value)
	ohash.Order(r, crypt.SipKey{0x5eed, 0x7ab1e})
	return r
}

// TestDeliveryAppliedWholeOrNotAtAll runs every partition kind through an
// L = 2 delivery that passes — its batches applied in order, the second
// seeing the first's write, the partition's epochs one further — and then
// one whose second batch the partition refuses (its table key cleared, so
// the order check fails): that one changes no value and no epoch, and the
// next delivery applies, reading the first one's write. So does one whose
// second batch has another block size than the partition's.
func TestDeliveryAppliedWholeOrNotAtAll(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			p, state := k.open(t)
			ids := make([]uint64, 40)
			var data []byte
			for i := range ids {
				ids[i] = uint64(i * 3)
				data = append(data, blockOf(ids[i], 0)...)
			}
			if err := p.Init(ids, data); err != nil {
				t.Fatal(err)
			}
			_, e0 := state()

			write := oneRow(store.OpWrite, 6, blockOf(6, 1))
			outs, err := p.Deliver(store.DeliveryTag{Stream: 1, Epoch: 1}, []*store.Requests{write, oneRow(store.OpRead, 6, nil)})
			if err != nil {
				t.Fatal(err)
			}
			if got := outs[1].Block(0); outs[1].Key[0] != 6 || !bytes.Equal(got, blockOf(6, 1)) {
				t.Fatalf("second batch read %q, want the first batch's write", got)
			}
			before, e1 := state()
			if fmt.Sprint(e1) != fmt.Sprint(advance(e0)) {
				t.Fatalf("a two-batch delivery moved epochs %v to %v, want one epoch", e0, e1)
			}

			unkeyed := oneRow(store.OpRead, 9, nil)
			unkeyed.StampKey(crypt.SipKey{})
			write = oneRow(store.OpWrite, 6, blockOf(6, 2))
			_, err = p.Deliver(store.DeliveryTag{Stream: 1, Epoch: 2}, []*store.Requests{write, unkeyed})
			if err == nil || !strings.Contains(err.Error(), k.refusal.Error()) {
				t.Fatalf("delivery with an unkeyed batch: %v, want %v", err, k.refusal)
			}
			if after, e2 := state(); !bytes.Equal(after, before) || fmt.Sprint(e2) != fmt.Sprint(e1) {
				t.Fatalf("a refused delivery changed the partition (epochs %v to %v)", e1, e2)
			}

			// The partition keeps serving: the next delivery applies, one
			// epoch further, and reads the first delivery's write.
			outs, err = p.Deliver(store.DeliveryTag{Stream: 1, Epoch: 3}, []*store.Requests{oneRow(store.OpRead, 6, nil)})
			if err != nil {
				t.Fatalf("delivery after a refused one: %v", err)
			}
			if got := outs[0].Block(0); !bytes.Equal(got, blockOf(6, 1)) {
				t.Fatalf("delivery after a refused one read %q, want the first delivery's write", got)
			}
			before, e3 := state()
			if fmt.Sprint(e3) != fmt.Sprint(advance(e1)) {
				t.Fatalf("delivery after a refused one moved epochs %v to %v, want one epoch", e1, e3)
			}

			// A batch of twice the partition's block size is refused whole,
			// and the partition keeps serving.
			wide := oneRowOf(2*deliveryBlock, store.OpRead, 9, nil)
			write = oneRow(store.OpWrite, 6, blockOf(6, 3))
			if _, err := p.Deliver(store.DeliveryTag{Stream: 1, Epoch: 4}, []*store.Requests{write, wide}); err == nil {
				t.Fatal("delivery with a batch of the wrong block size was accepted")
			}
			if after, e4 := state(); !bytes.Equal(after, before) || fmt.Sprint(e4) != fmt.Sprint(e3) {
				t.Fatalf("a delivery of the wrong block size changed the partition (epochs %v to %v)", e3, e4)
			}
			outs, err = p.Deliver(store.DeliveryTag{Stream: 1, Epoch: 5}, []*store.Requests{oneRow(store.OpRead, 6, nil)})
			if err != nil {
				t.Fatalf("delivery after one of the wrong block size: %v", err)
			}
			if got := outs[0].Block(0); !bytes.Equal(got, blockOf(6, 1)) {
				t.Fatalf("delivery after one of the wrong block size read %q, want the first delivery's write", got)
			}
			if _, e5 := state(); fmt.Sprint(e5) != fmt.Sprint(advance(e3)) {
				t.Fatalf("delivery after one of the wrong block size moved epochs %v to %v, want one epoch", e3, e5)
			}
		})
	}
}
