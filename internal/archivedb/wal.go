package archivedb

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame layout. Every WAL record is one frame:
//
//	| uint32 payloadLen | uint32 crc32c(payload) | payload |
//
// and the payload itself is an envelope header followed by the raw
// archive bytes:
//
//	| uint32 envLen | envelope JSON | data |
//
// Keeping the data outside the JSON envelope avoids base64 inflation
// while the envelope stays self-describing (op, job ID, index meta).
const frameHeaderSize = 8

// segmentMagic opens every segment file; it identifies the file type and
// pins the frame format version.
var segmentMagic = []byte("GRNLWAL1")

// segmentHeaderSize is the length of the magic prefix; the first frame
// starts at this offset.
const segmentHeaderSize = int64(len("GRNLWAL1"))

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WAL operation kinds.
const (
	opPut    = "put"
	opDelete = "del"
	// opProbe is a liveness probe record: it exercises the real append
	// and fsync path (so a health probe cannot lie about a broken disk)
	// but carries no data. Recovery skips it; compaction reclaims it.
	opProbe = "probe"
)

// envelope is the JSON header inside each frame payload.
type envelope struct {
	Op   string     `json:"op"`
	ID   string     `json:"id"`
	Meta *IndexMeta `json:"meta,omitempty"`
}

// errTornFrame marks a frame that cannot be read completely or fails its
// checksum. At the tail of the newest segment this is the signature of a
// crash mid-write and is truncated away; anywhere else it is corruption.
var errTornFrame = fmt.Errorf("archivedb: torn or corrupt wal frame")

// encodeFrame builds the on-disk bytes for one record.
func encodeFrame(env envelope, data []byte) ([]byte, error) {
	envBytes, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("archivedb: encode envelope: %w", err)
	}
	payload := make([]byte, 4+len(envBytes)+len(data))
	binary.LittleEndian.PutUint32(payload[0:4], uint32(len(envBytes)))
	copy(payload[4:], envBytes)
	copy(payload[4+len(envBytes):], data)

	frame := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHeaderSize:], payload)
	return frame, nil
}

// readFrame reads and checksums the frame starting at off and returns
// its bytes, header included, as they lie on disk. fileSize bounds the
// read so a torn tail is detected without trusting the length field;
// maxRecord guards against absurd lengths from corrupt headers.
func readFrame(r io.ReaderAt, off, fileSize, maxRecord int64) ([]byte, error) {
	if off+frameHeaderSize > fileSize {
		return nil, errTornFrame
	}
	var hdr [frameHeaderSize]byte
	if _, err := r.ReadAt(hdr[:], off); err != nil {
		return nil, errTornFrame
	}
	n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	if n > maxRecord || off+frameHeaderSize+n > fileSize {
		return nil, errTornFrame
	}
	frame := make([]byte, frameHeaderSize+n)
	copy(frame, hdr[:])
	if _, err := r.ReadAt(frame[frameHeaderSize:], off+frameHeaderSize); err != nil {
		return nil, errTornFrame
	}
	if crc32.Checksum(frame[frameHeaderSize:], castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, errTornFrame
	}
	return frame, nil
}

// decodePayload splits a frame payload back into its envelope and data.
func decodePayload(payload []byte) (envelope, []byte, error) {
	if len(payload) < 4 {
		return envelope{}, nil, errTornFrame
	}
	envLen := int64(binary.LittleEndian.Uint32(payload[0:4]))
	if envLen > int64(len(payload))-4 {
		return envelope{}, nil, errTornFrame
	}
	var env envelope
	if err := json.Unmarshal(payload[4:4+envLen], &env); err != nil {
		return envelope{}, nil, fmt.Errorf("archivedb: decode envelope: %w", err)
	}
	return env, payload[4+envLen:], nil
}
