package shard

import (
	"bytes"
	"testing"
)

// FuzzHintRecord drives the hinted-handoff journal format: any input
// the decoder accepts must satisfy the hint invariants, re-encode, and
// reach a byte-stable fixed point — a journaled hint read back after a
// crash is exactly the hint that was written.
func FuzzHintRecord(f *testing.F) {
	f.Add([]byte(`{"target":"s2","id":"job-1","version":1,"payload":{"state":"done"}}`))
	f.Add([]byte(`{"target":"s1","id":"j","version":18446744073709551615,"payload":[1,2,3]}`))
	f.Add([]byte(`{"target":"","id":"j","version":1,"payload":{}}`)) // invalid: no target
	f.Add([]byte(`{"target":"s1","id":"j","version":0,"payload":{}}`))
	f.Add([]byte(`{"target":"s1","id":"j","version":1,"payload":"quoted"}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHintRecord(data)
		if err != nil {
			return // rejected input: nothing else to check
		}
		if err := h.validate(); err != nil {
			t.Fatalf("decoder accepted a hint that fails validation: %v", err)
		}
		buf, err := EncodeHintRecord(h)
		if err != nil {
			t.Fatalf("decoded hint does not re-encode: %v", err)
		}
		h2, err := DecodeHintRecord(buf)
		if err != nil {
			t.Fatalf("re-encoded hint does not decode: %v", err)
		}
		if h2.Target != h.Target || h2.ID != h.ID || h2.Version != h.Version {
			t.Fatalf("round trip changed the hint: %+v != %+v", h2, h)
		}
		// One encode pass normalizes the payload; after that the bytes
		// are a fixed point.
		buf2, err := EncodeHintRecord(h2)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(buf, buf2) {
			t.Fatalf("encoding is not a fixed point: %q != %q", buf, buf2)
		}
	})
}

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
