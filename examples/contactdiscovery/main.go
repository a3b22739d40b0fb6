// Private contact discovery (paper §3.2, §5): the design Snoopy's subORAM
// generalizes. A messaging service's enclave holds the registered-user
// set; a client uploads its address book and learns which contacts are
// registered — while the enclave's memory access pattern reveals nothing
// about the contacts (it builds an oblivious hash table of the batch and
// linearly scans ALL registered users against it, exactly Fig. 7).
//
// This example drives the subORAM engine directly: the Aux bit of each
// response is the "registered" signal, and the value block returns the
// user's profile record.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"log"
	"time"

	"snoopy/internal/crypt"
	"snoopy/internal/ohash"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
)

const (
	registered = 50_000 // users registered with the service
	blockSize  = 64     // profile record size
)

func main() {
	// ---- Service enclave: load the registered-user set ----
	ids := make([]uint64, registered)
	data := make([]byte, registered*blockSize)
	for i := range ids {
		ids[i] = phoneID(fmt.Sprintf("+1-555-%07d", i))
		copy(data[i*blockSize:], fmt.Sprintf("profile(user-%d)", i))
	}
	eng := suboram.New(suboram.Config{BlockSize: blockSize, Workers: 4})
	if err := eng.Init(ids, data); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("enclave loaded %d registered users\n", registered)

	// ---- Client: upload an address book (some registered, some not) ----
	contacts := []string{
		"+1-555-0000042",   // registered
		"+1-555-0013337",   // registered
		"+44-20-7946-0000", // not registered
		"+1-555-0000007",   // registered
		"+49-30-1234567",   // not registered
	}
	batch := store.NewRequests(len(contacts), blockSize)
	for i, c := range contacts {
		batch.SetRow(i, store.OpRead, phoneID(c), 0, 0, 0, nil)
	}
	// A batch says what order it is in: stamped with a fresh table key and
	// sorted into that key's table order.
	ohash.Order(batch, crypt.MustNewSipKey())

	t0 := time.Now()
	out, err := eng.BatchAccess(batch)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(t0)

	// ---- Client learns the intersection; the enclave's access pattern
	// was a fixed function of (batch size, data size) only ----
	found := map[uint64][]byte{}
	for i := 0; i < out.Len(); i++ {
		if out.Aux[i] == 1 {
			found[out.Key[i]] = out.Block(i)
		}
	}
	for _, c := range contacts {
		if rec, ok := found[phoneID(c)]; ok {
			fmt.Printf("  %-20s registered   (%s)\n", c, trim(rec))
		} else {
			fmt.Printf("  %-20s not on the service\n", c)
		}
	}
	st := eng.LastStats()
	fmt.Printf("discovery over %d users in %v (table build %v, oblivious scan %v)\n",
		registered, elapsed.Round(time.Millisecond),
		st.Build.Round(time.Millisecond), st.Scan.Round(time.Millisecond))
}

// phoneID hashes a phone number into the object-id space.
func phoneID(phone string) uint64 {
	h := sha256.Sum256([]byte(phone))
	return binary.LittleEndian.Uint64(h[:8]) &^ (uint64(1) << 63)
}

func trim(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}
