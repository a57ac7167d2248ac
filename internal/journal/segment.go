package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// On-disk record framing. Every record is one frame:
//
//	offset 0: uint32 LE  payload length (1 .. maxRecord)
//	offset 4: uint32 LE  CRC-32C (Castagnoli) of the payload
//	offset 8: payload bytes
//
// Frames are written append-only and never padded, so a crash can only
// leave the *suffix* of a segment damaged. Recovery reads frames until
// the first one that is incomplete, has an impossible length, or fails
// its checksum; in the tail segment that point is the torn tail (the
// file is truncated there), anywhere else it is corruption and Open
// refuses the journal rather than surface a bad record.
//
// A zero length is impossible by construction (Append rejects empty
// payloads) and is treated as torn tail: filesystems that extend a file
// with zero blocks after a crash would otherwise fabricate an "empty
// record" whose empty-payload CRC (0) verifies.

const (
	frameHeader = 8
	// maxRecord bounds a single payload; a length field above it is
	// garbage bytes, not a record.
	maxRecord = 16 << 20

	segPrefix    = "seg-"
	segSuffix    = ".wal"
	manifestName = "MANIFEST"
	manifestTmp  = "MANIFEST.tmp"
)

// castagnoli is the CRC-32C table (the checksum used by ext4, btrfs,
// and most storage formats; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends the frame for payload to dst and returns it.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// segName formats the file name of segment seq.
func segName(seq uint64) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix)
}

// parseSegName inverts segName.
func parseSegName(name string) (seq uint64, ok bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	if len(digits) == 0 {
		return 0, false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

// segScan is the result of scanning one segment file.
type segScan struct {
	payloads [][]byte
	// good is the byte offset of the end of the last valid frame.
	good int64
	// size is the file size.
	size int64
	// badReason is non-empty when the bytes after good do not form a
	// valid frame ("torn frame", "bad checksum", ...).
	badReason string
}

// clean reports whether the segment parsed end to end.
func (s segScan) clean() bool { return s.good == s.size }

// scanSegment reads every valid frame of the segment file at path,
// stopping at the first invalid one. It never fails on bad frames —
// classification (torn tail vs corruption) is the caller's job, because
// it depends on whether the segment is sealed and whether it is last.
func scanSegment(path string) (segScan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return segScan{}, err
	}
	s := segScan{size: int64(len(data))}
	off := int64(0)
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return s, nil
		}
		if len(rest) < frameHeader {
			s.badReason = "torn frame header"
			return s, nil
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		if length == 0 || length > maxRecord {
			s.badReason = fmt.Sprintf("impossible record length %d", length)
			return s, nil
		}
		if int64(len(rest)) < frameHeader+int64(length) {
			s.badReason = "torn record payload"
			return s, nil
		}
		payload := rest[frameHeader : frameHeader+int64(length)]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:8]) {
			s.badReason = "bad checksum"
			return s, nil
		}
		// Copy out: data is one big read-only buffer we are about to
		// drop; callers keep payloads.
		s.payloads = append(s.payloads, append([]byte(nil), payload...))
		off += frameHeader + int64(length)
		s.good = off
	}
}

// listSegments returns the segment sequence numbers present in dir, in
// ascending order.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSegName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// segPath joins dir and the segment seq's file name.
func segPath(dir string, seq uint64) string { return filepath.Join(dir, segName(seq)) }
