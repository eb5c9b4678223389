package shard

import (
	"bytes"
	"testing"
)

// FuzzDigest drives the anti-entropy digest exchange format: accepted
// digests must be strictly sorted with valid versions, and must round
// trip byte-identically (the exchange depends on deterministic
// encoding to compare cheaply).
func FuzzDigest(f *testing.F) {
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"id":"a","version":1}]`))
	f.Add([]byte(`[{"id":"a","version":1},{"id":"b","version":7}]`))
	f.Add([]byte(`[{"id":"b","version":1},{"id":"a","version":1}]`)) // invalid: unsorted
	f.Add([]byte(`[{"id":"a","version":0}]`))
	f.Add([]byte(`[{"id":"","version":1}]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"id":"a"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := decodeDigest(data)
		if err != nil {
			return
		}
		for i := 1; i < len(entries); i++ {
			if entries[i-1].ID >= entries[i].ID {
				t.Fatalf("decoder accepted an unsorted digest at %d: %+v", i, entries)
			}
		}
		for _, e := range entries {
			if e.ID == "" || e.Version == 0 {
				t.Fatalf("decoder accepted an invalid entry: %+v", e)
			}
		}
		buf, err := EncodeDigest(entries)
		if err != nil {
			t.Fatalf("decoded digest does not re-encode: %v", err)
		}
		entries2, err := decodeDigest(buf)
		if err != nil {
			t.Fatalf("re-encoded digest does not decode: %v", err)
		}
		if len(entries2) != len(entries) {
			t.Fatalf("round trip changed length: %d != %d", len(entries2), len(entries))
		}
		for i := range entries {
			if entries2[i] != entries[i] {
				t.Fatalf("round trip changed entry %d: %+v != %+v", i, entries2[i], entries[i])
			}
		}
		buf2, err := EncodeDigest(entries2)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(buf, buf2) {
			t.Fatalf("encoding is not a fixed point: %q != %q", buf, buf2)
		}
	})
}
