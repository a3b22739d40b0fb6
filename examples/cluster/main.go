// Cluster deployment: subORAMs served behind attested, encrypted TCP
// channels (the paper's architecture, Fig. 1c, on localhost). Each
// "machine" is a listener running the subORAM server loop; the client
// process attests each one before keying its channel, then drives the
// full system through the load balancers.
//
// For a true multi-process deployment, see cmd/snoopy-server and
// cmd/snoopy-client.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"
	"time"

	"snoopy"
	"snoopy/internal/enclave"
	"snoopy/internal/metrics"
	"snoopy/internal/transport"
)

const (
	subORAMs  = 4
	lbs       = 2
	objects   = 50_000
	blockSize = 160
)

func main() {
	platform := snoopy.NewPlatform()
	measurement := snoopy.Measure("snoopy-suboram-v1")

	// ---- Spin up subORAM "machines" ----
	var subs []snoopy.SubORAM
	for i := 0; i < subORAMs; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer l.Close()
		go transport.ServeSubORAM(l, snoopy.NewLocalSubORAM(blockSize, 2, false),
			platform, enclave.Measurement(measurement), nil)
		sub, err := snoopy.DialSubORAM(l.Addr().String(), platform, measurement)
		if err != nil {
			log.Fatal(err)
		}
		subs = append(subs, sub)
		fmt.Printf("attested subORAM %d at %s\n", i, l.Addr())
	}

	// ---- Assemble the system ----
	st, err := snoopy.OpenWithSubORAMs(snoopy.Config{
		BlockSize:     blockSize,
		LoadBalancers: lbs,
		Epoch:         20 * time.Millisecond,
	}, subs)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	ids := make([]uint64, objects)
	data := make([]byte, objects*blockSize)
	for i := range ids {
		ids[i] = uint64(i)
		copy(data[i*blockSize:], fmt.Sprintf("value-%d", i))
	}
	if err := st.LoadSlices(ids, data); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d objects across %d partitions behind %d load balancers\n",
		objects, subORAMs, lbs)

	// ---- Concurrent clients ----
	const clients, opsPerClient = 16, 25
	var lat metrics.Latencies
	th := metrics.NewThroughput()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < opsPerClient; i++ {
				key := uint64(rng.Intn(objects))
				t0 := time.Now()
				var err error
				if rng.Intn(2) == 0 {
					_, _, err = st.Read(key)
				} else {
					_, _, err = st.Write(key, []byte(fmt.Sprintf("w-%d-%d", c, i)))
				}
				if err != nil {
					log.Printf("op: %v", err)
					return
				}
				lat.Add(time.Since(t0))
				th.Done(1)
			}
		}()
	}
	wg.Wait()

	fmt.Printf("completed %d ops: %.0f reqs/s, latency %s\n", th.Ops(), th.PerSecond(), lat.String())
	s := st.Stats()
	fmt.Printf("last epoch: batch %d per subORAM, %d dropped, wall %v\n",
		s.BatchSize, s.Dropped, s.Wall.Round(time.Millisecond))
}
