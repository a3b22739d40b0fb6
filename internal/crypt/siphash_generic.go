//go:build !amd64 || purego

package crypt

// sipBuckets8 is the vector body of SipBucketsN; no body here selects it.
func sipBuckets8(v *[4]uint64, ids *uint64, n int, n1, n2 uint64, b1, b2 *uint32, wide bool) {
	panic("crypt: no vector SipHash in this build")
}
