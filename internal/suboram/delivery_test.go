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
	"snoopy/internal/oblix"
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

// kind builds one kind of partition and returns how to read its state:
// every value it holds, and its epochs and trusted counter (none for a
// partition that counts none). empty: the partition is initialised with no
// objects, so its reads find nothing.
type kind struct {
	name  string
	empty bool
	open  func(t *testing.T) (p deliverer, state func() ([]byte, []uint64))
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

// group is a three-member replica.Group of subORAMs; its state lists every
// member's epoch, then the group's counter.
func group(t *testing.T) (deliverer, func() ([]byte, []uint64)) {
	subs := make([]*suboram.SubORAM, 3)
	nodes := make([]*replica.Node, len(subs))
	members := make([]replica.Client, len(subs))
	for i := range subs {
		subs[i] = suboram.New(suboram.Config{BlockSize: deliveryBlock})
		nodes[i] = replica.NewNode(subs[i])
		members[i] = nodes[i]
	}
	ctr := &replica.TrustedCounter{}
	g, err := replica.NewGroup(members, deliveryBlock, ctr, 1, 1)
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
		return data, append(epochs, ctr.Current())
	}
}

var kinds = []kind{
	{"sealed=false", false, func(t *testing.T) (deliverer, func() ([]byte, []uint64)) {
		s := suboram.New(suboram.Config{BlockSize: deliveryBlock})
		return s, plainState(t, s)
	}},
	{"sealed=true", false, func(t *testing.T) (deliverer, func() ([]byte, []uint64)) {
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
	}},
	{"durable=memory", false, durable(false)},
	{"durable=disk", false, durable(true)},
	{"remote", false, func(t *testing.T) (deliverer, func() ([]byte, []uint64)) {
		platform, m := enclave.NewPlatform(), enclave.Measure("snoopy-suboram")
		s := suboram.New(suboram.Config{BlockSize: deliveryBlock})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go transport.ServeSubORAM(l, s, platform, m, nil)
		r, err := transport.Dial(l.Addr().String(), platform, m)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return r, plainState(t, s)
	}},
	{"replica", false, group},
	// A group initialised with no objects gates on the block size NewGroup
	// was given, as every other group does.
	{"replica-init-empty", true, group},
	{"oblix", false, func(t *testing.T) (deliverer, func() ([]byte, []uint64)) {
		s := oblix.NewSubORAM(deliveryBlock)
		return s, func() ([]byte, []uint64) {
			_, data, err := s.Export()
			if err != nil {
				t.Fatal(err)
			}
			return data, nil
		}
	}},
}

// refusals are the gate's refusals (ohash.CheckDelivery), each a delivery
// built around a valid write batch w, with what the error must say.
var refusals = []struct {
	name     string
	delivery func(w *store.Requests) []*store.Requests
	want     string
}{
	{"no batches", func(*store.Requests) []*store.Requests { return nil }, "needs a batch"},
	{"an empty batch", func(w *store.Requests) []*store.Requests {
		return []*store.Requests{w, store.NewRequests(0, deliveryBlock)}
	}, "empty batch"},
	{"an unkeyed batch", func(w *store.Requests) []*store.Requests {
		r := oneRow(store.OpRead, 9, nil)
		r.StampKey(crypt.SipKey{})
		return []*store.Requests{w, r}
	}, ohash.ErrOrder.Error()},
	{"a batch under two keys", func(w *store.Requests) []*store.Requests {
		r := twoRows()
		r.Client[1]++
		return []*store.Requests{w, r}
	}, ohash.ErrOrder.Error()},
	{"a batch out of table order", func(w *store.Requests) []*store.Requests {
		r, tmp := twoRows(), twoRows()
		r.CopyRowPlain(0, tmp, 1)
		r.CopyRowPlain(1, tmp, 0)
		return []*store.Requests{w, r}
	}, ohash.ErrOrder.Error()},
	{"a batch of another block size", func(w *store.Requests) []*store.Requests {
		return []*store.Requests{w, oneRowOf(2*deliveryBlock, store.OpRead, 9, nil)}
	}, "block size"},
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
	ohash.Order(r, tableKey)
	return r
}

var tableKey = crypt.SipKey{0x5eed, 0x7ab1e}

// twoRows is a two-read batch in table order under the fixed key.
func twoRows() *store.Requests {
	r := store.NewRequests(2, deliveryBlock)
	r.SetRow(0, store.OpRead, 9, 0, 0, 0, nil)
	r.SetRow(1, store.OpRead, 12, 0, 0, 0, nil)
	ohash.Order(r, tableKey)
	return r
}

// TestDeliveryAppliedWholeOrNotAtAll runs every partition kind through an
// L = 2 delivery that passes — its batches applied in order, the second
// seeing the first's write, the partition's epochs one further — and then
// through every refusal of the delivery gate, each a delivery whose first
// batch is a valid write: a refused delivery changes no value, no epoch and
// no counter, and the next delivery applies, one epoch further, reading the
// first delivery's write.
func TestDeliveryAppliedWholeOrNotAtAll(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			p, state := k.open(t)
			var ids []uint64
			var data []byte
			if !k.empty {
				for i := 0; i < 40; i++ {
					ids = append(ids, uint64(i*3))
					data = append(data, blockOf(uint64(i*3), 0)...)
				}
			}
			if err := p.Init(ids, data); err != nil {
				t.Fatal(err)
			}
			// written is what a read of key 6 finds after the first
			// delivery: its write, or nothing in an empty partition.
			written := blockOf(6, 1)
			if k.empty {
				written = make([]byte, deliveryBlock)
			}
			_, e0 := state()
			tag := store.DeliveryTag{Stream: 1, Epoch: 1}

			outs, err := p.Deliver(tag, []*store.Requests{oneRow(store.OpWrite, 6, blockOf(6, 1)), oneRow(store.OpRead, 6, nil)})
			if err != nil {
				t.Fatal(err)
			}
			if got := outs[1].Block(0); outs[1].Key[0] != 6 || !bytes.Equal(got, written) {
				t.Fatalf("second batch read %q, want the first batch's write", got)
			}
			before, e1 := state()
			if fmt.Sprint(e1) != fmt.Sprint(advance(e0)) {
				t.Fatalf("a two-batch delivery moved epochs %v to %v, want one epoch", e0, e1)
			}

			for i, r := range refusals {
				t.Run(r.name, func(t *testing.T) {
					tag.Epoch++
					_, err := p.Deliver(tag, r.delivery(oneRow(store.OpWrite, 6, blockOf(6, i+2))))
					if err == nil || !strings.Contains(err.Error(), r.want) {
						t.Fatalf("refused with %v, want %q", err, r.want)
					}
					if after, e := state(); !bytes.Equal(after, before) || fmt.Sprint(e) != fmt.Sprint(e1) {
						t.Fatalf("a refused delivery changed the partition (epochs %v to %v)", e1, e)
					}
					// The partition keeps serving: the next delivery applies,
					// one epoch further, and reads the first delivery's write.
					tag.Epoch++
					outs, err := p.Deliver(tag, []*store.Requests{oneRow(store.OpRead, 6, nil)})
					if err != nil {
						t.Fatalf("the next delivery: %v", err)
					}
					if got := outs[0].Block(0); !bytes.Equal(got, written) {
						t.Fatalf("the next delivery read %q, want the first delivery's write", got)
					}
					var e []uint64
					if before, e = state(); fmt.Sprint(e) != fmt.Sprint(advance(e1)) {
						t.Fatalf("the next delivery moved epochs %v to %v, want one epoch", e1, e)
					}
					e1 = e
				})
			}
		})
	}
}
