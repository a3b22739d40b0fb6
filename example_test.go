package snoopy_test

import (
	"fmt"
	"time"

	"snoopy"
)

// Example shows the minimal lifecycle: open, load, read, write.
func Example() {
	st, err := snoopy.Open(snoopy.Config{
		SubORAMs:      2,
		LoadBalancers: 1,
		Epoch:         2 * time.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	defer st.Close()

	if err := st.Load(map[uint64][]byte{
		42: []byte("the answer"),
	}); err != nil {
		panic(err)
	}

	v, ok, _ := st.Read(42)
	fmt.Println(ok, string(v[:10]))

	prev, _, _ := st.Write(42, []byte("rewritten!"))
	fmt.Println(string(prev[:10]))

	v, _, _ = st.Read(42)
	fmt.Println(string(v[:10]))
	// Output:
	// true the answer
	// the answer
	// rewritten!
}

// ExampleStore_Do shows submitting a whole batch of operations that
// complete together in one epoch.
func ExampleStore_Do() {
	st, err := snoopy.Open(snoopy.Config{SubORAMs: 2, Epoch: 2 * time.Millisecond})
	if err != nil {
		panic(err)
	}
	defer st.Close()
	st.Load(map[uint64][]byte{1: []byte("a"), 2: []byte("b")})

	results := st.Do([]snoopy.Op{
		{Key: 1},
		{Write: true, Key: 2, Value: []byte("B")},
		{Key: 404}, // not loaded
	})
	for _, r := range results {
		if r.Found {
			fmt.Printf("%q\n", r.Value[:1])
		} else {
			fmt.Println("missing")
		}
	}
	// Output:
	// "a"
	// "b"
	// missing
}

// ExampleStore_EnableACL shows the Appendix-D access control extension.
func ExampleStore_EnableACL() {
	st, err := snoopy.Open(snoopy.Config{SubORAMs: 1, Epoch: 2 * time.Millisecond})
	if err != nil {
		panic(err)
	}
	defer st.Close()
	st.Load(map[uint64][]byte{7: []byte("classified")})
	st.EnableACL([]snoopy.ACLRule{
		{User: 1, Object: 7, Op: snoopy.OpRead},
	}, 1)

	res := st.Do([]snoopy.Op{
		{Key: 7, User: 1}, // granted
		{Key: 7, User: 2}, // denied, indistinguishably
	})
	fmt.Println("user 1:", res[0].Found)
	fmt.Println("user 2:", res[1].Found)
	// Output:
	// user 1: true
	// user 2: false
}
