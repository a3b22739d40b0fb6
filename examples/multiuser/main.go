// Multi-user deployment with the paper's extension features: an
// access-control matrix served by a recursive Snoopy instance (Appendix D)
// over partitions replicated for crash- and rollback-tolerance (§9).
// Three users share a document store; the storage provider can neither see
// which documents anyone touches nor tell permitted from denied requests.
package main

import (
	"fmt"
	"log"
	"time"

	"snoopy"
)

const (
	alice = uint64(1)
	bob   = uint64(2)
	eve   = uint64(3)

	payrollDoc = uint64(100)
	wikiDoc    = uint64(101)
)

func main() {
	// Two partitions, each replicated to tolerate 1 crash + 1 rollback.
	var subs []snoopy.SubORAM
	for i := 0; i < 2; i++ {
		g, err := snoopy.NewReplicatedSubORAM(160, 1, 1, false)
		if err != nil {
			log.Fatal(err)
		}
		subs = append(subs, g)
	}
	st, err := snoopy.OpenWithSubORAMs(snoopy.Config{
		LoadBalancers: 2,
		Epoch:         10 * time.Millisecond,
	}, subs)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	if err := st.Load(map[uint64][]byte{
		payrollDoc: []byte("salaries: CONFIDENTIAL"),
		wikiDoc:    []byte("lunch menu: tacos"),
	}); err != nil {
		log.Fatal(err)
	}

	// Alice administers payroll; Bob can read the wiki and payroll; Eve
	// gets nothing.
	rules := []snoopy.ACLRule{
		{User: alice, Object: payrollDoc, Op: snoopy.OpRead},
		{User: alice, Object: payrollDoc, Op: snoopy.OpWrite},
		{User: bob, Object: payrollDoc, Op: snoopy.OpRead},
		{User: bob, Object: wikiDoc, Op: snoopy.OpRead},
		{User: bob, Object: wikiDoc, Op: snoopy.OpWrite},
	}
	if err := st.EnableACL(rules, 1); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("store up: 2 replicated partitions (f=1, r=1), %d ACL rules\n", len(rules))

	show := func(who string, user, doc uint64) {
		r := st.Do([]snoopy.Op{{Key: doc, User: user}})[0]
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		if !r.Found {
			fmt.Printf("  %-5s read doc %d -> DENIED (null response)\n", who, doc)
			return
		}
		fmt.Printf("  %-5s read doc %d -> %q\n", who, doc, trim(r.Value))
	}

	show("alice", alice, payrollDoc)
	show("bob", bob, payrollDoc)
	show("bob", bob, wikiDoc)
	show("eve", eve, payrollDoc) // denied — and the provider can't tell

	// Eve tries to vandalize the wiki; the write is obliviously suppressed.
	if r := st.Do([]snoopy.Op{{Write: true, Key: wikiDoc, Value: []byte("pwned"), User: eve}})[0]; r.Err != nil {
		log.Fatal(r.Err)
	} else if r.Found {
		log.Fatal("eve's write should have been denied")
	}
	show("bob", bob, wikiDoc) // unchanged

	// Bob updates the wiki legitimately.
	if r := st.Do([]snoopy.Op{{Write: true, Key: wikiDoc, Value: []byte("lunch menu: ramen"), User: bob}})[0]; r.Err != nil {
		log.Fatal(r.Err)
	}
	show("bob", bob, wikiDoc)
	fmt.Println("every request above flowed through fixed-size oblivious batches;")
	fmt.Println("denied and permitted operations were indistinguishable in execution")
}

func trim(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}
